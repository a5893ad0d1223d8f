#include "engine/visited.hpp"

#include <bit>

#include "netbase/hash.hpp"

namespace plankton {

VisitedSet::VisitedSet(std::size_t initial_capacity) {
  slots_.assign(std::bit_ceil(initial_capacity < 16 ? 16 : initial_capacity), 0);
}

void VisitedSet::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t v : old) {
    if (v == 0) continue;
    std::size_t i = static_cast<std::size_t>(v) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = v;
  }
}

BloomFilter::BloomFilter(std::size_t bits, int hashes) : hashes_(hashes) {
  const std::size_t b = std::bit_ceil(bits < 1024 ? std::size_t{1024} : bits);
  words_.assign(b / 64, 0);
  mask_ = b - 1;
}

bool BloomFilter::insert(std::uint64_t h) {
  const std::uint64_t h1 = hash_mix(h);
  const std::uint64_t h2 = hash_mix(h1) | 1;  // odd stride
  bool fresh = false;
  std::uint64_t pos = h1;
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = pos & mask_;
    const std::uint64_t word_mask = std::uint64_t{1} << (bit & 63);
    if ((words_[bit >> 6] & word_mask) == 0) {
      fresh = true;
      words_[bit >> 6] |= word_mask;
    }
    pos += h2;
  }
  return fresh;
}

const char* to_string(VisitedKind kind) {
  switch (kind) {
    case VisitedKind::kExact: return "exact";
    case VisitedKind::kBitstate: return "bitstate";
  }
  return "?";
}

VisitedBackend::VisitedBackend(VisitedKind kind, std::size_t bloom_bits) {
  if (kind == VisitedKind::kBitstate) bloom_.emplace(bloom_bits);
}

}  // namespace plankton
