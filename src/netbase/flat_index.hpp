// Flat open-addressing identity index: 64-bit content hash -> 32-bit id.
//
// The interning tables (PathTable, RouteTable) and the DPOR visited store all
// need the same thing on the hot path: given a hash, find the id of the one
// stored item with equal content, or learn that there is none. A node-based
// std::unordered_map<hash, ...> costs a heap node per entry (plus a bucket
// vector per distinct hash in the interning tables), a pointer chase per
// probe, and a free per entry at destruction. FlatIndex keeps one flat array
// of 8-byte slots instead:
//
//   slot = { tag, id }   tag = upper 32 bits of the hash, id != 0 (0 = empty)
//
// The tag also picks the home slot (tag & mask), so growth rehashes from the
// slots alone without touching the items. Probing is linear and the table
// doubles at 3/4 load.
//
// The tag only filters: two items whose hashes share the upper 32 bits (or
// are equal outright) are told apart by the caller's `eq(id)` callback, which
// compares full content — route fields, cell head and rest, or a full 64-bit
// state key kept beside the item. Identity is therefore never decided on the
// tag, and an exact store built on this index stays exact.
#pragma once

#include <cstdint>
#include <vector>

namespace plankton {

class FlatIndex {
 public:
  /// Id of the stored item with hash `hash` for which eq(id) holds, or 0.
  template <typename Eq>
  [[nodiscard]] std::uint32_t find(std::uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return 0;
    return slots_[probe(tag_of(hash), eq)].id;
  }

  /// The stored id for which eq(id) holds; when there is none, stores
  /// `fresh` (non-zero) under `hash` and returns it. A caller tells the two
  /// cases apart by comparing the result with `fresh`.
  template <typename Eq>
  std::uint32_t find_or_insert(std::uint64_t hash, std::uint32_t fresh,
                               Eq&& eq) {
    const std::uint32_t tag = tag_of(hash);
    if (!slots_.empty()) {
      const std::size_t i = probe(tag, eq);
      if (slots_[i].id != 0) return slots_[i].id;
      if ((size_ + 1) * 4 <= slots_.size() * 3) {
        slots_[i] = Slot{tag, fresh};
        ++size_;
        return fresh;
      }
    }
    grow();
    place(Slot{tag, fresh});
    ++size_;
    return fresh;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = 0;  ///< 0 = empty
  };

  static std::uint32_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }

  /// The slot holding the item eq accepts, or the empty slot that ends the
  /// probe chain. Needs a non-empty table.
  template <typename Eq>
  std::size_t probe(std::uint32_t tag, Eq& eq) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    while (slots_[i].id != 0 && !(slots_[i].tag == tag && eq(slots_[i].id))) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void place(Slot s) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = s.tag & mask;
    while (slots_[i].id != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot s : old) {
      if (s.id != 0) place(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace plankton
