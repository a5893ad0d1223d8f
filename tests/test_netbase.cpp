// netbase: IPv4 values, prefixes, topology, failure sets, Dijkstra, and
// strict integer parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "netbase/hash.hpp"
#include "netbase/ip.hpp"
#include "netbase/parse_int.hpp"
#include "netbase/topology.hpp"

namespace plankton {
namespace {

TEST(IpAddr, ParseAndFormatRoundTrip) {
  for (const char* text : {"0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.1"}) {
    const auto a = IpAddr::parse(text);
    ASSERT_TRUE(a.has_value()) << text;
    EXPECT_EQ(a->str(), text);
  }
}

TEST(IpAddr, RejectsMalformed) {
  for (const char* text : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d",
                           "1..2.3", "1.2.3.4 ", "-1.2.3.4"}) {
    EXPECT_FALSE(IpAddr::parse(text).has_value()) << text;
  }
}

TEST(IpAddr, NumericOrdering) {
  EXPECT_LT(IpAddr(10, 0, 0, 0), IpAddr(10, 0, 0, 1));
  EXPECT_LT(IpAddr(9, 255, 255, 255), IpAddr(10, 0, 0, 0));
}

TEST(Prefix, MasksHostBits) {
  const Prefix p(IpAddr(10, 1, 2, 3), 16);
  EXPECT_EQ(p.addr(), IpAddr(10, 1, 0, 0));
  EXPECT_EQ(p.first(), IpAddr(10, 1, 0, 0));
  EXPECT_EQ(p.last(), IpAddr(10, 1, 255, 255));
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const Prefix any = Prefix::any();
  EXPECT_EQ(any.first(), IpAddr(0, 0, 0, 0));
  EXPECT_EQ(any.last(), IpAddr(255, 255, 255, 255));
  EXPECT_TRUE(any.contains(IpAddr(1, 2, 3, 4)));
  EXPECT_TRUE(any.covers(Prefix(IpAddr(10, 0, 0, 0), 8)));
}

TEST(Prefix, HostPrefix) {
  const Prefix h = Prefix::host(IpAddr(1, 2, 3, 4));
  EXPECT_EQ(h.length(), 32);
  EXPECT_EQ(h.first(), h.last());
  EXPECT_TRUE(h.contains(IpAddr(1, 2, 3, 4)));
  EXPECT_FALSE(h.contains(IpAddr(1, 2, 3, 5)));
}

TEST(Prefix, CoversIsPartialOrder) {
  const Prefix a(IpAddr(10, 0, 0, 0), 8);
  const Prefix b(IpAddr(10, 1, 0, 0), 16);
  const Prefix c(IpAddr(11, 0, 0, 0), 8);
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  EXPECT_FALSE(a.covers(c));
  EXPECT_TRUE(a.covers(a));
}

TEST(Prefix, ParseRejectsBadLength) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/x").has_value());
}

TEST(FailureSet, TracksSortedIds) {
  FailureSet f(10);
  f.fail(7);
  f.fail(2);
  f.fail(7);  // idempotent
  EXPECT_EQ(f.count(), 2u);
  EXPECT_TRUE(f.is_failed(2));
  EXPECT_TRUE(f.is_failed(7));
  EXPECT_FALSE(f.is_failed(3));
  ASSERT_EQ(f.ids().size(), 2u);
  EXPECT_EQ(f.ids()[0], 2u);
  EXPECT_EQ(f.ids()[1], 7u);
}

TEST(FailureSet, HashIsOrderIndependentAndDiscriminates) {
  FailureSet a(10), b(10), c(10);
  a.fail(1);
  a.fail(5);
  b.fail(5);
  b.fail(1);
  c.fail(1);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Topology, AdjacencyAndFindLink) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const LinkId ab = topo.add_link(a, b, 5);
  topo.add_link(b, c, 7, 9);
  EXPECT_EQ(topo.find_link(a, b), ab);
  EXPECT_EQ(topo.find_link(b, a), ab);
  EXPECT_EQ(topo.find_link(a, c), kNoLink);
  EXPECT_EQ(topo.link(ab).cost_from(a), 5u);
  const LinkId bc = topo.find_link(b, c);
  EXPECT_EQ(topo.link(bc).cost_from(b), 7u);
  EXPECT_EQ(topo.link(bc).cost_from(c), 9u);
}

TEST(Dijkstra, LineGraphDistances) {
  Topology topo;
  for (int i = 0; i < 5; ++i) topo.add_node("n");
  for (int i = 0; i + 1 < 5; ++i) {
    topo.add_link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), 2);
  }
  const std::vector<NodeId> src{0};
  const auto d = shortest_path_costs(topo, src, FailureSet(topo.link_count()));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[i], static_cast<std::uint32_t>(2 * i));
}

TEST(Dijkstra, RespectsAsymmetricCosts) {
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_link(0, 1, 1, 100);
  // Distance-to-origin trees accumulate the cost of the forwarding node's
  // outgoing interface: b -> a uses cost_from(b) = 100.
  const std::vector<NodeId> src{0};
  const auto d = shortest_path_costs(topo, src, FailureSet(1));
  EXPECT_EQ(d[1], 100u);
}

TEST(Dijkstra, FailuresDisconnect) {
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  const LinkId l = topo.add_link(0, 1);
  FailureSet f(1);
  f.fail(l);
  const std::vector<NodeId> src{0};
  const auto d = shortest_path_costs(topo, src, f);
  EXPECT_EQ(d[1], kInfiniteCost);
}

TEST(Dijkstra, MultiSourceTakesNearest) {
  Topology topo;
  for (int i = 0; i < 6; ++i) topo.add_node("n");
  for (int i = 0; i + 1 < 6; ++i) {
    topo.add_link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), 1);
  }
  const std::vector<NodeId> src{0, 5};
  const auto d = shortest_path_costs(topo, src, FailureSet(topo.link_count()));
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[4], 1u);
}

TEST(Hash, MixAvalanchesAndCombineDiscriminates) {
  EXPECT_NE(hash_mix(1), hash_mix(2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = rng();
    EXPECT_NE(hash_mix(x), hash_mix(x + 1));
  }
}

TEST(ParseInt, AcceptsPlainDecimalsInRange) {
  int v = -1;
  EXPECT_TRUE(parse_int("0", v, 0));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(parse_int("2147483647", v, 0));
  EXPECT_EQ(v, 2147483647);
  EXPECT_TRUE(parse_int("-3", v));
  EXPECT_EQ(v, -3);
  std::uint32_t u = 0;
  EXPECT_TRUE(parse_int("4294967295", u));
  EXPECT_EQ(u, 4294967295u);
  std::uint16_t port = 0;
  EXPECT_TRUE(parse_int<std::uint16_t>("8080", port, 1, 65535));
  EXPECT_EQ(port, 8080);
}

TEST(ParseInt, RejectsMalformedAndOutOfRangeInput) {
  int v = 7;
  for (const char* text :
       {"", " 1", "1 ", "+1", "x", "2x", "0x10", "1.5", "--1", "2147483648"}) {
    EXPECT_FALSE(parse_int(text, v)) << "'" << text << "'";
  }
  EXPECT_FALSE(parse_int("-1", v, 0)) << "below lo";
  EXPECT_FALSE(parse_int("0", v, 1)) << "below lo";
  EXPECT_FALSE(parse_int("65536", v, 1, 65535)) << "above hi";
  EXPECT_EQ(v, 7) << "a refused value leaves the output untouched";
  std::uint32_t u = 7;
  EXPECT_FALSE(parse_int("-1", u)) << "no sign for an unsigned type";
  EXPECT_FALSE(parse_int("4294967296", u));
  EXPECT_EQ(u, 7u);
}

}  // namespace
}  // namespace plankton
