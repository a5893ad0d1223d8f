// Lock-striped concurrent verdict cache for the plankton_serve daemon.
//
// Keyed by (cone, ctx):
//
//   · `cone` is the invalidation half — a fold of the PEC's own residue
//     (compute_pec_fingerprints, eqclass/pec_dedup.hpp) with the residues of
//     every PEC in its transitive outcome-dependency cone. A residue hashes
//     every config value the PEC's exploration can read, so a config delta
//     that moves anything the PEC's verification can observe changes
//     `cone`, and stale entries are never *hit* — they are simply
//     unreachable under the new key. Invalidation is implicit in the key,
//     which is what makes the scheme sound under crashes: there is no
//     separate invalidation step to lose.
//   · `ctx` is the question half — the PEC identity string, the policy spec,
//     and the query knobs that can change a verdict (max failures). Options
//     that are verdict-invariant by construction (POR, dedup, engine kind,
//     core count — each pinned by its own differential suite) are
//     deliberately excluded so a dedup-off differential run hits the same
//     entries.
//
// Soundness rule enforced here, not at call sites: lookup() only ever
// returns clean kHolds entries. Violated / inconclusive / non-exhaustive
// entries are stored (so stats and warm starts see them) but a lookup that
// finds one reports a miss (counted as nonclean_bypass) — those PECs always
// re-verify, per the cache-never-masks-a-violation contract.
//
// Disk format ("PKC1", versioned like the PKS1 frame header): little-endian
// magic u32, version u16 (2), reserved u16, entry count u64, then 17-byte
// entries: cone u64, ctx u64, verdict u8. load() validates everything and
// refuses the whole file on any mismatch, an unknown version included — a
// truncated, corrupt or older-format cache warm-starts empty instead of
// half-poisoned. Refusing a version-1 file loses nothing: its cones were
// computed from a different fingerprint, so none of its keys could hit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "checker/budget.hpp"
#include "netbase/hash.hpp"

namespace plankton::serve {

struct CacheKey {
  std::uint64_t cone = 0;
  std::uint64_t ctx = 0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(hash_combine(k.cone, k.ctx));
  }
};

/// One cached per-PEC outcome. Only the verdict is kept: a hit serves a
/// clean hold and nothing else, and every other verdict re-verifies.
struct CacheEntry {
  std::uint8_t verdict = 0;  ///< plankton::Verdict

  [[nodiscard]] bool clean_hold() const {
    return verdict == static_cast<std::uint8_t>(Verdict::kHolds);
  }
  bool operator==(const CacheEntry&) const = default;
};

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t nonclean_bypass = 0;  ///< present but not a clean hold
  std::uint64_t insertions = 0;
  std::uint64_t warm_loaded = 0;      ///< entries restored from disk
  std::uint64_t entries = 0;          ///< current size

  /// Wire order of the kCacheStats reply (serve/serve.hpp).
  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.hits, s.misses, s.nonclean_bypass, s.insertions,
             s.warm_loaded, s.entries);
  }
};

class VerdictCache {
 public:
  /// True (and fills `out`) only for a present *clean-hold* entry. A present
  /// non-clean entry counts nonclean_bypass and returns false so the caller
  /// re-verifies.
  bool lookup(const CacheKey& key, CacheEntry& out);

  /// True when the key maps to any entry (test/introspection surface —
  /// deliberately not usable to skip verification).
  [[nodiscard]] bool contains(const CacheKey& key) const;

  void insert(const CacheKey& key, const CacheEntry& entry);
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheCounters counters() const;

  /// Whole-cache snapshot to/from disk. save() writes atomically
  /// (tmp + rename). load() replaces the cache contents on success; on a
  /// missing, truncated, or corrupt file it returns false, fills `error`,
  /// and leaves the cache unchanged.
  bool save(const std::string& path, std::string& error) const;
  bool load(const std::string& path, std::string& error);

  static constexpr std::uint32_t kCacheMagic = 0x504b4331;  // "PKC1"
  static constexpr std::uint16_t kCacheVersion = 2;

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> map;
  };

  Stripe& stripe_of(const CacheKey& key) {
    return stripes_[CacheKeyHash{}(key) % kStripes];
  }
  const Stripe& stripe_of(const CacheKey& key) const {
    return stripes_[CacheKeyHash{}(key) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> nonclean_bypass_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> warm_loaded_{0};
};

}  // namespace plankton::serve
