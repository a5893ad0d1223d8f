#include "engine/visited.hpp"

#include <bit>

namespace plankton {

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
  if (fresh) ++inserted_;
  return fresh;
}

void BloomFilter::clear() {
  words_.assign(words_.size(), 0);
  inserted_ = 0;
}

const char* to_string(VisitedKind kind) {
  switch (kind) {
    case VisitedKind::kExact: return "exact";
    case VisitedKind::kHashCompact: return "hash-compact";
    case VisitedKind::kBitstate: return "bitstate";
  }
  return "?";
}

namespace {

class HashCompactVisited;

class ExactVisited final : public VisitedBackend {
 public:
  bool insert(std::uint64_t key) override { return set_.insert(key); }
  [[nodiscard]] std::size_t stored() const override { return set_.size(); }
  [[nodiscard]] std::size_t bytes() const override { return set_.bytes(); }
  void clear() override { set_.clear(); }
  [[nodiscard]] VisitedKind kind() const override { return VisitedKind::kExact; }
  [[nodiscard]] bool exhaustive() const override { return true; }
  [[nodiscard]] std::unique_ptr<VisitedBackend> degrade_to_compact()
      const override;

 private:
  VisitedSet set_;
};

/// SPIN-style hash compaction: keys are folded to 32 bits before storage.
/// Two distinct states sharing a compacted key make the second look visited,
/// so coverage is probabilistic — but the table is half the size of kExact.
class HashCompactVisited final : public VisitedBackend {
 public:
  bool insert(std::uint64_t key) override {
    std::uint32_t c =
        static_cast<std::uint32_t>(hash_mix(key) >> 32);  // compacted value
    if (c == 0) c = 0x9e3779b9u;                          // 0 marks "empty"
    return set_.insert(c);
  }

  [[nodiscard]] std::size_t stored() const override { return set_.size(); }
  [[nodiscard]] std::size_t bytes() const override { return set_.bytes(); }
  void clear() override { set_.clear(); }
  [[nodiscard]] VisitedKind kind() const override {
    return VisitedKind::kHashCompact;
  }
  [[nodiscard]] bool exhaustive() const override { return false; }

 private:
  detail::OpenAddressSet<std::uint32_t> set_;
};

class BitstateVisited final : public VisitedBackend {
 public:
  explicit BitstateVisited(std::size_t bloom_bits) : bloom_(bloom_bits) {}

  bool insert(std::uint64_t key) override { return bloom_.insert(key); }
  [[nodiscard]] std::size_t stored() const override {
    return static_cast<std::size_t>(bloom_.approx_states());
  }
  [[nodiscard]] std::size_t bytes() const override { return bloom_.bytes(); }
  void clear() override { bloom_.clear(); }
  [[nodiscard]] VisitedKind kind() const override {
    return VisitedKind::kBitstate;
  }
  [[nodiscard]] bool exhaustive() const override { return false; }

 private:
  BloomFilter bloom_;
};

std::unique_ptr<VisitedBackend> ExactVisited::degrade_to_compact() const {
  auto compact = std::make_unique<HashCompactVisited>();
  set_.for_each([&compact](std::uint64_t key) { compact->insert(key); });
  return compact;
}

}  // namespace

std::unique_ptr<VisitedBackend> make_visited_backend(VisitedKind kind,
                                                     std::size_t bloom_bits) {
  switch (kind) {
    case VisitedKind::kExact: return std::make_unique<ExactVisited>();
    case VisitedKind::kHashCompact:
      return std::make_unique<HashCompactVisited>();
    case VisitedKind::kBitstate:
      return std::make_unique<BitstateVisited>(bloom_bits);
  }
  return std::make_unique<ExactVisited>();
}

}  // namespace plankton
