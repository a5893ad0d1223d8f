// FlatIndex: the open-addressing identity index behind the path and route
// interning tables and the DPOR visited store. The tag (upper 32 hash bits)
// only filters; identity is always the caller's full-content comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/flat_index.hpp"

namespace plankton {
namespace {

/// Items keyed by an arbitrary 64-bit hash; content is a string, so two
/// items with one hash can still differ. Ids are index + 1.
struct Store {
  FlatIndex index;
  std::vector<std::string> items;

  std::uint32_t intern(std::uint64_t hash, const std::string& content) {
    const auto fresh = static_cast<std::uint32_t>(items.size() + 1);
    const std::uint32_t id = index.find_or_insert(
        hash, fresh, [&](std::uint32_t c) { return items[c - 1] == content; });
    if (id == fresh) items.push_back(content);
    return id;
  }

  [[nodiscard]] std::uint32_t find(std::uint64_t hash,
                                   const std::string& content) const {
    return index.find(
        hash, [&](std::uint32_t c) { return items[c - 1] == content; });
  }
};

TEST(FlatIndex, SameTagDifferentContentGetsDistinctIds) {
  Store s;
  // Same upper 32 bits (tag and home slot), different low bits and content.
  const std::uint64_t h1 = 0xabcdef0100000001ull;
  const std::uint64_t h2 = 0xabcdef0100000002ull;
  const std::uint32_t a = s.intern(h1, "a");
  const std::uint32_t b = s.intern(h2, "b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(s.find(h1, "a"), a);
  EXPECT_EQ(s.find(h2, "b"), b);
  // Equal hashes outright, different content: still two entries.
  const std::uint32_t c = s.intern(h1, "c");
  EXPECT_NE(c, a);
  EXPECT_EQ(s.find(h1, "c"), c);
  EXPECT_EQ(s.find(h1, "a"), a);
  // Re-interning returns the stored id, not a new one.
  EXPECT_EQ(s.intern(h2, "b"), b);
  EXPECT_EQ(s.index.size(), 3u);
}

TEST(FlatIndex, EveryIdSurvivesRepeatedGrowth) {
  Store s;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> ids;
  std::size_t growths = 0;
  std::size_t bytes = s.index.bytes();
  // Colliding tags on purpose: every 4th hash shares its tag with the
  // previous one, so probe chains cross the growth rehash too.
  std::uint64_t tag = 0x12345678;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    if (i % 4 != 0) tag = tag * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t h = (tag << 32) | i;
    hashes.push_back(h);
    ids.push_back(s.intern(h, std::to_string(i)));
    if (s.index.bytes() != bytes) {
      bytes = s.index.bytes();
      ++growths;
    }
  }
  EXPECT_GE(growths, 4u) << "the table must have grown at least 3 times";
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(s.find(hashes[i], std::to_string(i)), ids[i]) << "item " << i;
  }
  EXPECT_EQ(s.index.size(), 1000u);
}

TEST(FlatIndex, MissingKeyReturnsZero) {
  Store s;
  EXPECT_EQ(s.find(42, "x"), 0u) << "empty index";
  s.intern(42, "x");
  EXPECT_EQ(s.find(42, "y"), 0u) << "same hash, other content";
  EXPECT_EQ(s.find(std::uint64_t{42} << 32, "x"), 0u) << "other tag";
}

TEST(FlatIndex, FullKeyEqualityKeepsLowBitNeighboursApart) {
  // The DPOR store's use: the index hashes the state key itself and the
  // callback compares full stored keys, so keys that differ only in their
  // low 32 bits (same tag) are distinct states — what kExact promises.
  FlatIndex index;
  std::vector<std::uint64_t> keys;
  const auto visit = [&](std::uint64_t key) {
    const auto fresh = static_cast<std::uint32_t>(keys.size() + 1);
    const std::uint32_t id = index.find_or_insert(
        key, fresh, [&](std::uint32_t c) { return keys[c - 1] == key; });
    if (id == fresh) keys.push_back(key);
    return id == fresh;
  };
  const std::uint64_t k1 = 0x00c0ffee00000000ull;
  const std::uint64_t k2 = 0x00c0ffee00000001ull;
  EXPECT_TRUE(visit(k1));
  EXPECT_TRUE(visit(k2)) << "a low-bit neighbour was taken for a seen state";
  EXPECT_FALSE(visit(k1));
  EXPECT_FALSE(visit(k2));
  EXPECT_EQ(index.size(), 2u);
}

}  // namespace
}  // namespace plankton
