// Hash-consed path and route tables (the §4.4 state-hashing substrate).
#include <gtest/gtest.h>

#include <random>

#include "engine/visited.hpp"
#include "protocols/route.hpp"

namespace plankton {
namespace {

TEST(PathTable, ConsInterning) {
  PathTable paths;
  const PathId a = paths.cons(3, kEmptyPath);
  const PathId b = paths.cons(3, kEmptyPath);
  EXPECT_EQ(a, b) << "identical cons cells must intern to one id";
  const PathId c = paths.cons(5, a);
  EXPECT_NE(c, a);
  EXPECT_EQ(paths.head(c), 5u);
  EXPECT_EQ(paths.rest(c), a);
}

TEST(PathTable, LengthAndVector) {
  PathTable paths;
  PathId p = kEmptyPath;
  for (NodeId n = 0; n < 5; ++n) p = paths.cons(n, p);
  EXPECT_EQ(paths.length(p), 5u);
  const auto v = paths.to_vector(p);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.front(), 4u);  // most recently consed = next hop
  EXPECT_EQ(v.back(), 0u);
}

TEST(PathTable, ContainsWalksWholePath) {
  PathTable paths;
  PathId p = kEmptyPath;
  for (const NodeId n : {7u, 3u, 9u}) p = paths.cons(n, p);
  EXPECT_TRUE(paths.contains(p, 7));
  EXPECT_TRUE(paths.contains(p, 9));
  EXPECT_FALSE(paths.contains(p, 4));
  EXPECT_FALSE(paths.contains(kNoPath, 7));
  EXPECT_FALSE(paths.contains(kEmptyPath, 7));
}

TEST(PathTable, SharedSuffixesStoredOnce) {
  PathTable paths;
  PathId spine = kEmptyPath;
  for (NodeId n = 0; n < 10; ++n) spine = paths.cons(n, spine);
  const std::size_t before = paths.size();
  for (NodeId n = 100; n < 200; ++n) paths.cons(n, spine);
  // 100 new cells, not 100 new paths-worth of cells.
  EXPECT_EQ(paths.size(), before + 100);
}

TEST(RouteTable, InternsStructurally) {
  RouteTable routes;
  Route a;
  a.path = 5;
  a.metric = 10;
  Route b = a;
  const RouteId ia = routes.intern(std::move(a));
  const RouteId ib = routes.intern(std::move(b));
  EXPECT_EQ(ia, ib);
  Route c;
  c.path = 5;
  c.metric = 11;
  EXPECT_NE(routes.intern(std::move(c)), ia);
}

TEST(RouteTable, EcmpDistinguishesRoutes) {
  RouteTable routes;
  Route a;
  a.path = 5;
  a.ecmp = {1, 2};
  Route b;
  b.path = 5;
  b.ecmp = {1, 3};
  EXPECT_NE(routes.intern(std::move(a)), routes.intern(std::move(b)));
}

TEST(RouteTable, NexthopsFromEcmpOrHead) {
  PathTable paths;
  RouteTable routes;
  const PathId p = paths.cons(9, kEmptyPath);
  Route single;
  single.path = p;
  const RouteId rs = routes.intern(std::move(single));
  std::vector<NodeId> hops;
  routes.nexthops(rs, paths, hops);
  EXPECT_EQ(hops, (std::vector<NodeId>{9}));

  Route multi;
  multi.path = p;
  multi.ecmp = {2, 9};
  const RouteId rm = routes.intern(std::move(multi));
  routes.nexthops(rm, paths, hops);
  EXPECT_EQ(hops, (std::vector<NodeId>{2, 9}));

  routes.nexthops(kNoRoute, paths, hops);
  EXPECT_TRUE(hops.empty());
}

TEST(VisitedSet, InsertSemantics) {
  VisitedSet v;
  EXPECT_TRUE(v.insert(42));
  EXPECT_FALSE(v.insert(42));
  EXPECT_TRUE(v.insert(43));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.insert(0));  // hash 0 is remapped, not lost
  EXPECT_FALSE(v.insert(0));
}

TEST(VisitedSet, SurvivesGrowth) {
  VisitedSet v(16);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) values.push_back(rng());
  for (const auto x : values) EXPECT_TRUE(v.insert(x));
  for (const auto x : values) EXPECT_FALSE(v.insert(x));
  EXPECT_EQ(v.size(), values.size());
}

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bloom(1 << 16);
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng());
  for (const auto x : values) bloom.insert(x);
  // A Bloom filter may report a new element as seen (false positive) but
  // must never report a seen element as new.
  for (const auto x : values) EXPECT_FALSE(bloom.insert(x));
}

TEST(Bloom, MemoryIsFixed) {
  BloomFilter bloom(1 << 20);
  const std::size_t bytes = bloom.bytes();
  std::mt19937_64 rng(13);
  for (int i = 0; i < 50000; ++i) bloom.insert(rng());
  EXPECT_EQ(bloom.bytes(), bytes);
}

TEST(VisitedBackends, BitstateReducesMemoryAtScale) {
  VisitedBackend exact(VisitedKind::kExact, 1 << 20);
  VisitedBackend bits(VisitedKind::kBitstate, 1 << 20);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t h = rng();
    exact.insert(h);
    bits.insert(h);
  }
  EXPECT_GT(exact.bytes(), bits.bytes());
}

}  // namespace
}  // namespace plankton
