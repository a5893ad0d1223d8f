// Visited-state storage for the explicit-state search (§4.4, Fig. 9).
//
// SPIN-style: states are never stored whole; the search only remembers a
// canonical 64-bit key produced by the StateCodec. A run keeps those keys in
// one of two stores, chosen once when the Explorer is built
// (ExploreOptions::visited):
//
//   kExact     64-bit keys in an open-addressing table — no key ever
//              aliases another (collisions of the *codec* hash aside).
//   kBitstate  k Bloom-filter bits per state (paper §5, Fig. 9): a large
//              memory reduction for a tiny probability of missed states
//              (reported coverage >99.9%), so no run over it is a proof.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace plankton {

/// Open-addressing set of non-zero 64-bit hashes: the exact visited store,
/// and the small exact dedup sets (failure sets, policy signatures,
/// outcomes). It starts at 16 slots and doubles at 3/4 load, so the many
/// small per-PEC sets of a run stay small.
class VisitedSet {
 public:
  explicit VisitedSet(std::size_t initial_capacity = 16);

  /// Inserts `h`; returns true when the hash was not present before.
  bool insert(std::uint64_t h) {
    if (h == 0) h = 0x9e3779b97f4a7c15ull;  // reserve 0 for "empty"
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == h) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = h;
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bytes() const {
    return slots_.size() * sizeof(std::uint64_t);
  }

 private:
  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

/// Double-hashed Bloom filter over 64-bit state hashes.
class BloomFilter {
 public:
  explicit BloomFilter(std::size_t bits, int hashes = 4);

  /// Sets the state's bits; returns true when at least one bit was clear
  /// (i.e. the state is definitely new).
  bool insert(std::uint64_t h);

  [[nodiscard]] std::size_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t mask_;
  int hashes_;
};

enum class VisitedKind : std::uint8_t {
  kExact = 0,
  kBitstate = 1,
};

[[nodiscard]] const char* to_string(VisitedKind kind);

/// The visited store of one exploration: the exact set, or under kBitstate
/// a Bloom filter of `bloom_bits` bits (4 hash functions).
class VisitedBackend {
 public:
  VisitedBackend(VisitedKind kind, std::size_t bloom_bits);

  /// Records the state key; returns true when the state is (believed) new.
  bool insert(std::uint64_t key) {
    return bloom_ ? bloom_->insert(key) : exact_.insert(key);
  }

  [[nodiscard]] std::size_t bytes() const {
    return bloom_ ? bloom_->bytes() : exact_.bytes();
  }

 private:
  VisitedSet exact_;                  ///< kExact
  std::optional<BloomFilter> bloom_;  ///< kBitstate
};

}  // namespace plankton
