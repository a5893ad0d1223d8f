// Visited-state storage for the explicit-state search (§4.4, Fig. 9).
//
// SPIN-style: states are never stored whole; the search only remembers a
// canonical 64-bit key produced by the StateCodec. How those keys are kept
// is a runtime-pluggable policy behind VisitedBackend:
//
//   kExact        64-bit keys in an open-addressing table — no key ever
//                 aliases another (collisions of the *codec* hash aside).
//   kHashCompact  32-bit compacted keys (SPIN's hash compaction): half the
//                 memory, a ~n²/2³² chance of wrongly skipping a state.
//   kBitstate     k Bloom-filter bits per state (paper §5, Fig. 9): a large
//                 memory reduction for a tiny probability of missed states
//                 (reported coverage >99.9%).
//
// Backends are selected via ExploreOptions::visited; search code only sees
// the interface.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "netbase/hash.hpp"

namespace plankton {
namespace detail {

/// Open-addressing hash set over non-zero integer slots (0 = empty). The
/// slot width is the compaction knob: 64-bit slots for the exact store,
/// 32-bit for SPIN-style hash compaction. It starts at 16 slots and doubles
/// at 3/4 load, so the many small per-PEC sets of a run stay small.
template <typename Slot>
class OpenAddressSet {
 public:
  explicit OpenAddressSet(std::size_t initial_capacity = 16) {
    const std::size_t cap =
        std::bit_ceil(initial_capacity < 16 ? 16 : initial_capacity);
    slots_.assign(cap, 0);
  }

  /// Inserts `v` (must be non-zero); true when not present before.
  bool insert(Slot v) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(v) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == v) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = v;
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bytes() const {
    return slots_.size() * sizeof(Slot);
  }

  /// Visits every stored value (order is table order, not insertion order).
  /// Used by the graceful-degradation path to migrate an exact store into a
  /// compacted one under memory pressure.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot v : slots_) {
      if (v != 0) fn(v);
    }
  }

  void clear() {
    slots_.assign(slots_.size(), 0);
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot v : old) {
      if (v == 0) continue;
      std::size_t i = static_cast<std::size_t>(v) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = v;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Open-addressing set of 64-bit hashes, also used directly for the small
/// exact dedup sets (failure sets, policy signatures, outcomes).
class VisitedSet {
 public:
  explicit VisitedSet(std::size_t initial_capacity = 16)
      : set_(initial_capacity) {}

  /// Inserts `h`; returns true when the hash was not present before.
  bool insert(std::uint64_t h) {
    if (h == 0) h = 0x9e3779b97f4a7c15ull;  // reserve 0 for "empty"
    return set_.insert(h);
  }

  [[nodiscard]] std::size_t size() const { return set_.size(); }
  [[nodiscard]] std::size_t bytes() const { return set_.bytes(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    set_.for_each(fn);
  }

  void clear() { set_.clear(); }

 private:
  detail::OpenAddressSet<std::uint64_t> set_;
};

/// Double-hashed Bloom filter over 64-bit state hashes.
class BloomFilter {
 public:
  explicit BloomFilter(std::size_t bits, int hashes = 4);

  /// Sets the state's bits; returns true when at least one bit was clear
  /// (i.e. the state is definitely new).
  bool insert(std::uint64_t h);

  [[nodiscard]] std::size_t bytes() const { return words_.size() * sizeof(std::uint64_t); }
  [[nodiscard]] std::uint64_t approx_states() const { return inserted_; }

  void clear();

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t mask_;
  int hashes_;
  std::uint64_t inserted_ = 0;
};

enum class VisitedKind : std::uint8_t {
  kExact = 0,
  kHashCompact = 1,
  kBitstate = 2,
};

[[nodiscard]] const char* to_string(VisitedKind kind);

/// Storage policy for the set of visited canonical state keys.
class VisitedBackend {
 public:
  virtual ~VisitedBackend() = default;

  /// Inserts the state key; returns true when the state is (believed) new.
  virtual bool insert(std::uint64_t key) = 0;

  /// States recorded so far (approximate for lossy backends).
  [[nodiscard]] virtual std::size_t stored() const = 0;
  [[nodiscard]] virtual std::size_t bytes() const = 0;
  virtual void clear() = 0;

  [[nodiscard]] virtual VisitedKind kind() const = 0;
  /// False when the backend may report an unseen state as seen (lossy
  /// compaction) — coverage is then probabilistic, as in Fig. 9.
  [[nodiscard]] virtual bool exhaustive() const = 0;
  /// Graceful degradation under memory pressure
  /// (ResourceBudget::degrade_visited): rebuilds this backend's contents in
  /// hash-compacted form — half the bytes, exhaustive() turns false. Only
  /// the exact backend can migrate (it alone still holds full keys); lossy
  /// backends return nullptr and the memory budget trips instead.
  [[nodiscard]] virtual std::unique_ptr<VisitedBackend> degrade_to_compact()
      const {
    return nullptr;
  }
  [[nodiscard]] const char* name() const { return to_string(kind()); }
};

/// `bloom_bits` sizes the kBitstate filter (4 hash functions).
[[nodiscard]] std::unique_ptr<VisitedBackend> make_visited_backend(
    VisitedKind kind, std::size_t bloom_bits = std::size_t{1} << 27);

}  // namespace plankton
