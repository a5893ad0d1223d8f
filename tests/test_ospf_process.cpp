// OSPF RPVP adapter: advertisement arithmetic, ranking, ECMP merging,
// SPF-order deterministic-node selection and settle order, protocol-domain
// masking, parallel links.
#include <gtest/gtest.h>

#include "protocols/ospf.hpp"

namespace plankton {
namespace {

/// Square: a--b--d, a--c--d with unit costs (two equal-cost paths a->d).
struct Square {
  Network net;
  NodeId a, b, c, d;
  Square() {
    a = net.add_device("a");
    b = net.add_device("b");
    c = net.add_device("c");
    d = net.add_device("d");
    net.topo.add_link(a, b, 1);
    net.topo.add_link(a, c, 1);
    net.topo.add_link(b, d, 1);
    net.topo.add_link(c, d, 1);
    for (NodeId n = 0; n < 4; ++n) net.device(n).ospf.enabled = true;
  }
};

TEST(OspfProcess, AdvertisedAccumulatesCost) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  const RouteId origin = proc.origin_route(fx.d, ctx);
  const RouteId at_b = proc.advertised(fx.d, fx.b, origin, ctx);
  ASSERT_NE(at_b, kNoRoute);
  EXPECT_EQ(ctx.routes.get(at_b).metric, 1u);
  const RouteId at_a = proc.advertised(fx.b, fx.a, at_b, ctx);
  ASSERT_NE(at_a, kNoRoute);
  EXPECT_EQ(ctx.routes.get(at_a).metric, 2u);
}

TEST(OspfProcess, AdvertisedRejectsLoops) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  const RouteId origin = proc.origin_route(fx.d, ctx);
  const RouteId at_b = proc.advertised(fx.d, fx.b, origin, ctx);
  const RouteId at_a = proc.advertised(fx.b, fx.a, at_b, ctx);
  // Re-advertising a's route back to b would loop through b.
  EXPECT_EQ(proc.advertised(fx.a, fx.b, at_a, ctx), kNoRoute);
}

TEST(OspfProcess, MergeProducesCanonicalEcmp) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  const RouteId origin = proc.origin_route(fx.d, ctx);
  const RouteId via_b = proc.advertised(fx.b, fx.a, proc.advertised(fx.d, fx.b, origin, ctx), ctx);
  const RouteId via_c = proc.advertised(fx.c, fx.a, proc.advertised(fx.d, fx.c, origin, ctx), ctx);
  const RouteId m1 = proc.merge(fx.a, std::vector<RouteId>{via_b, via_c}, ctx);
  const RouteId m2 = proc.merge(fx.a, std::vector<RouteId>{via_c, via_b}, ctx);
  EXPECT_EQ(m1, m2) << "merge must be order-insensitive (canonical ECMP)";
  const Route& merged = ctx.routes.get(m1);
  EXPECT_EQ(merged.ecmp, (std::vector<NodeId>{fx.b, fx.c}));
  EXPECT_EQ(merged.metric, 2u);
}

TEST(OspfProcess, MergePrefersLowerMetricOverEcmp) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  Route cheap;
  cheap.path = ctx.paths.cons(fx.b, kEmptyPath);
  cheap.metric = 1;
  Route expensive;
  expensive.path = ctx.paths.cons(fx.c, kEmptyPath);
  expensive.metric = 5;
  const RouteId rc = ctx.routes.intern(std::move(cheap));
  const RouteId re = ctx.routes.intern(std::move(expensive));
  const RouteId m = proc.merge(fx.a, std::vector<RouteId>{re, rc}, ctx);
  EXPECT_EQ(ctx.routes.get(m).metric, 1u);
  EXPECT_TRUE(ctx.routes.get(m).ecmp.empty()) << "single winner: no ECMP set";
}

TEST(OspfProcess, CompareRanksByMetricOnly) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  Route r1;
  r1.path = ctx.paths.cons(fx.b, kEmptyPath);
  r1.metric = 3;
  Route r2;
  r2.path = ctx.paths.cons(fx.c, kEmptyPath);
  r2.metric = 4;
  const RouteId i1 = ctx.routes.intern(std::move(r1));
  const RouteId i2 = ctx.routes.intern(std::move(r2));
  EXPECT_GT(proc.compare(fx.a, i1, i2, ctx), 0);
  EXPECT_LT(proc.compare(fx.a, i2, i1, ctx), 0);
  EXPECT_GT(proc.compare(fx.a, i1, kNoRoute, ctx), 0);
  EXPECT_EQ(proc.compare(fx.a, i1, i1, ctx), 0);
}

TEST(OspfProcess, DeterministicNodeFollowsSpfOrder) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  EXPECT_EQ(proc.spf_dist(fx.d), 0u);
  EXPECT_EQ(proc.spf_dist(fx.b), 1u);
  EXPECT_EQ(proc.spf_dist(fx.a), 2u);
  // Among enabled {a, b}, b (closer to the origin) must be picked.
  std::vector<RouteId> rib(4, kNoRoute);
  bool tie_ok = true;
  const std::vector<NodeId> enabled{fx.a, fx.b};
  const NodeId pick = proc.deterministic_node(enabled, StateView(rib), ctx, tie_ok);
  EXPECT_EQ(pick, fx.b);
  EXPECT_FALSE(tie_ok);
}

TEST(OspfProcess, PrepareMasksNonOspfDomains) {
  // a--x--d where x does not run OSPF: a must be unreachable through x.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId x = net.add_device("x");
  const NodeId d = net.add_device("d");
  net.topo.add_link(a, x, 1);
  net.topo.add_link(x, d, 1);
  net.device(a).ospf.enabled = true;
  net.device(d).ospf.enabled = true;  // x stays non-OSPF
  OspfProcess proc(net, *Prefix::parse("10.0.0.0/24"), {d});
  ModelContext ctx;
  ctx.net = &net;
  proc.prepare(net.topo.no_failures(), ctx);
  EXPECT_EQ(proc.spf_dist(a), kInfiniteCost);
  EXPECT_TRUE(proc.peers(a).empty());
}

TEST(OspfProcess, FailuresRemovePeers) {
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  FailureSet failures(fx.net.topo.link_count());
  failures.fail(fx.net.topo.find_link(fx.a, fx.b));
  proc.prepare(failures, ctx);
  const auto peers = proc.peers(fx.a);
  EXPECT_EQ(std::vector<NodeId>(peers.begin(), peers.end()),
            (std::vector<NodeId>{fx.c}));
  EXPECT_EQ(proc.spf_dist(fx.a), 2u) << "still reachable via c";
}

TEST(OspfProcess, ParallelLinksCostTheCheapestLiveLink) {
  // Two links join a and b, of cost 10 and cost 1: b is a's peer once, and
  // the session costs whichever live link is cheaper.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  const LinkId slow = net.topo.add_link(a, b, 10);
  const LinkId fast = net.topo.add_link(a, b, 1);
  net.device(a).ospf.enabled = true;
  net.device(b).ospf.enabled = true;
  OspfProcess proc(net, *Prefix::parse("10.0.0.0/24"), {b});
  ModelContext ctx;
  ctx.net = &net;
  const RouteId origin = proc.origin_route(b, ctx);
  const auto metric_at_a = [&]() -> std::uint32_t {
    const RouteId r = proc.advertised(b, a, origin, ctx);
    return r == kNoRoute ? kInfiniteCost : ctx.routes.get(r).metric;
  };
  proc.prepare(net.topo.no_failures(), ctx);
  EXPECT_EQ(std::vector<NodeId>(proc.peers(a).begin(), proc.peers(a).end()),
            (std::vector<NodeId>{b}));
  EXPECT_EQ(proc.spf_dist(a), 1u);
  EXPECT_EQ(metric_at_a(), 1u);
  FailureSet failures(net.topo.link_count());
  failures.fail(fast);
  proc.prepare(failures, ctx);
  EXPECT_EQ(proc.peers(a).size(), 1u);
  EXPECT_EQ(proc.spf_dist(a), 10u);
  EXPECT_EQ(metric_at_a(), 10u);
  failures.fail(slow);
  proc.prepare(failures, ctx);
  EXPECT_TRUE(proc.peers(a).empty());
  EXPECT_EQ(metric_at_a(), kInfiniteCost) << "no live session, no route";
}

TEST(OspfProcess, SpfOrderIsDistThenId) {
  // d originates; b and c tie at distance 1, a is at 2.
  Square fx;
  OspfProcess proc(fx.net, *Prefix::parse("10.0.0.0/24"), {fx.d});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  EXPECT_EQ(std::vector<NodeId>(proc.spf_order().begin(), proc.spf_order().end()),
            (std::vector<NodeId>{fx.d, fx.b, fx.c, fx.a}));
  FailureSet failures(fx.net.topo.link_count());
  failures.fail(fx.net.topo.find_link(fx.b, fx.d));
  proc.prepare(failures, ctx);
  EXPECT_EQ(std::vector<NodeId>(proc.spf_order().begin(), proc.spf_order().end()),
            (std::vector<NodeId>{fx.d, fx.c, fx.a, fx.b}));
}

TEST(OspfProcess, AsymmetricCostsEndToEnd) {
  // a--b with cost 1 forward, 10 backward: a's route to b's prefix costs 1;
  // b's to a's prefix costs 10.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  net.topo.add_link(a, b, 1, 10);
  net.device(a).ospf.enabled = true;
  net.device(b).ospf.enabled = true;
  OspfProcess toward_b(net, *Prefix::parse("10.1.0.0/24"), {b});
  ModelContext ctx;
  ctx.net = &net;
  toward_b.prepare(net.topo.no_failures(), ctx);
  EXPECT_EQ(toward_b.spf_dist(a), 1u);
  OspfProcess toward_a(net, *Prefix::parse("10.2.0.0/24"), {a});
  toward_a.prepare(net.topo.no_failures(), ctx);
  EXPECT_EQ(toward_a.spf_dist(b), 10u);
}

}  // namespace
}  // namespace plankton
