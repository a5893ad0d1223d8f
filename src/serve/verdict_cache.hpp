// Lock-striped concurrent verdict cache for the plankton_serve daemon: the
// set of keys whose PEC verification ended in a clean hold.
//
// Keyed by (cone, ctx):
//
//   · `cone` is the invalidation half — a fold of the PEC's own residue
//     (compute_pec_fingerprints, eqclass/pec_dedup.hpp) with the residues of
//     every PEC in its transitive outcome-dependency cone. A residue hashes
//     every config value the PEC's exploration can read, so a config delta
//     that moves anything the PEC's verification can observe changes
//     `cone`, and stale keys are never *hit* — they are simply unreachable
//     under the new key. Invalidation is implicit in the key, which is what
//     makes the scheme sound under crashes: there is no separate
//     invalidation step to lose.
//   · `ctx` is the question half — the PEC identity (a hash of its string,
//     kept per PEC with the cones), the policy spec, and the query knobs
//     that can change a verdict (max failures). Options
//     that are verdict-invariant by construction (POR, dedup, engine kind,
//     core count — each pinned by its own differential suite) are
//     deliberately excluded so a dedup-off differential run hits the same
//     keys.
//
// Soundness rule enforced here, not at call sites: insert() keeps a key only
// for a kHolds verdict, so any key present is a clean hold by construction
// and lookup() is a membership test. Violated, inconclusive and
// non-exhaustive outcomes are never stored — those PECs re-verify on every
// query, per the cache-never-masks-a-violation contract.
//
// The cache has no file of its own. Journal compaction (serve/journal.hpp)
// writes the keys() whose cone belongs to the resident config into a
// kCleanHolds record after that config, and replay hands them back through
// restore().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "checker/budget.hpp"
#include "netbase/hash.hpp"

namespace plankton::serve {

struct CacheKey {
  std::uint64_t cone = 0;
  std::uint64_t ctx = 0;
  bool operator==(const CacheKey&) const = default;

  /// Wire order inside the journal's kCleanHolds record.
  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.cone, s.ctx);
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(hash_combine(k.cone, k.ctx));
  }
};

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;   ///< clean holds inserted by queries
  std::uint64_t warm_loaded = 0;  ///< keys restored from the journal
  std::uint64_t entries = 0;      ///< current size

  /// Wire order of the kCacheStats reply (serve/serve.hpp).
  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.hits, s.misses, s.insertions, s.warm_loaded, s.entries);
  }
};

class VerdictCache {
 public:
  /// True when `key` is present, i.e. its PEC is a clean hold.
  bool lookup(const CacheKey& key);

  /// Keeps `key` when `verdict` is kHolds; every other verdict is dropped.
  void insert(const CacheKey& key, Verdict verdict);

  /// Adds keys from the journal's compaction snapshot, counted in
  /// warm_loaded.
  void restore(const std::vector<CacheKey>& keys);

  /// Every key, in stripe order: the journal's compaction snapshot.
  [[nodiscard]] std::vector<CacheKey> keys() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheCounters counters() const;

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_set<CacheKey, CacheKeyHash> keys;
  };

  Stripe& stripe_of(const CacheKey& key) {
    return stripes_[CacheKeyHash{}(key) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> warm_loaded_{0};
};

}  // namespace plankton::serve
