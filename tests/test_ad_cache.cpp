// AdCache unit tests: the advertisement memo must return exactly what a
// recomputation would, hit only when the peer's best route is unchanged
// within a generation, and drop everything on invalidation — in particular
// across upstream-outcome changes, where iBGP advertised() results differ
// for the same (edge, route) inputs. A run whose phases all take the SPF
// pass never reads the memo, so it never builds one.
#include <gtest/gtest.h>

#include "config/network.hpp"
#include "pec/pec.hpp"
#include "protocols/bgp.hpp"
#include "protocols/ospf.hpp"
#include "rpvp/ad_cache.hpp"
#include "rpvp/explorer.hpp"
#include "workload/fat_tree.hpp"

namespace plankton {
namespace {

TEST(AdCache, HitOnRepeatMissOnRouteChange) {
  // 0 --1-- 1 --1-- 2 chain, OSPF everywhere, origin at node 0.
  Network net;
  for (int i = 0; i < 3; ++i) {
    const NodeId id = net.add_device("r" + std::to_string(i));
    net.device(id).ospf.enabled = true;
  }
  net.topo.add_link(0, 1, 1);
  net.topo.add_link(1, 2, 1);
  net.device(0).ospf.originated.push_back(*Prefix::parse("10.0.0.0/16"));

  OspfProcess proc(net, *Prefix::parse("10.0.0.0/16"), {0});
  ModelContext ctx;
  ctx.net = &net;
  proc.prepare(net.topo.no_failures(), ctx);

  AdCache cache;
  cache.reset(1);
  cache.invalidate();
  cache.bind(0, proc, net.topo.node_count());
  SearchStats stats;

  const RouteId origin = proc.origin_route(0, ctx);
  // Node 1's peers are {0, 2}; peer 0 is index 0.
  ASSERT_EQ(proc.peers(1)[0], 0u);

  const RouteId direct = proc.advertised(0, 1, origin, ctx);
  ASSERT_NE(direct, kNoRoute);

  // First consult computes, second hits, and both equal the direct result.
  const RouteId first = cache.advertised(proc, 0, 1, 0, 0, origin, ctx, stats);
  EXPECT_EQ(first, direct);
  EXPECT_EQ(stats.ad_cache_misses, 1u);
  EXPECT_EQ(stats.ad_cache_hits, 0u);
  const RouteId second = cache.advertised(proc, 0, 1, 0, 0, origin, ctx, stats);
  EXPECT_EQ(second, direct);
  EXPECT_EQ(stats.ad_cache_hits, 1u);

  // A different input route on the same edge misses and returns the fresh
  // computation (rib change invalidation).
  const RouteId two_hop = proc.advertised(1, 2, direct, ctx);
  ASSERT_NE(two_hop, kNoRoute);
  ASSERT_EQ(proc.peers(1)[1], 2u);
  const RouteId via2 = cache.advertised(proc, 0, 1, 1, 2, two_hop, ctx, stats);
  EXPECT_EQ(via2, proc.advertised(2, 1, two_hop, ctx));
  EXPECT_EQ(stats.ad_cache_misses, 2u);

  // ⊥ in, ⊥ out without touching the cache.
  const std::uint64_t hits = stats.ad_cache_hits;
  const std::uint64_t misses = stats.ad_cache_misses;
  EXPECT_EQ(cache.advertised(proc, 0, 1, 0, 0, kNoRoute, ctx, stats), kNoRoute);
  EXPECT_EQ(stats.ad_cache_hits, hits);
  EXPECT_EQ(stats.ad_cache_misses, misses);

  // Generation bump (new failure set / upstream outcome): same inputs miss
  // again and recompute to the same interned id.
  cache.invalidate();
  cache.bind(0, proc, net.topo.node_count());
  EXPECT_EQ(cache.advertised(proc, 0, 1, 0, 0, origin, ctx, stats), direct);
  EXPECT_EQ(stats.ad_cache_misses, misses + 1);
}

/// Upstream stand-in with a controllable IGP cost: the iBGP import metric.
class FakeUpstream final : public UpstreamResolver {
 public:
  explicit FakeUpstream(std::uint32_t cost) : cost_(cost) {}
  [[nodiscard]] std::uint32_t igp_cost(NodeId, IpAddr) const override {
    return cost_;
  }
  [[nodiscard]] std::span<const NodeId> nexthops_towards(NodeId,
                                                         IpAddr) const override {
    return {};
  }
  [[nodiscard]] std::uint64_t outcome_hash() const override { return cost_; }

 private:
  std::uint32_t cost_;
};

TEST(AdCache, UpstreamOutcomeChangeIsNotReusedAcrossGenerations) {
  // Two iBGP peers; the import metric of an iBGP-learned route is the IGP
  // cost to the advertising peer's loopback, i.e. upstream-dependent.
  Network net;
  const NodeId a = net.add_device("a", IpAddr(10, 0, 0, 1));
  const NodeId b = net.add_device("b", IpAddr(10, 0, 0, 2));
  net.device(a).bgp.emplace();
  net.device(a).bgp->asn = 65000;
  net.device(b).bgp.emplace();
  net.device(b).bgp->asn = 65000;
  BgpSession sab;
  sab.peer = b;
  sab.ibgp = true;
  net.device(a).bgp->sessions.push_back(sab);
  BgpSession sba;
  sba.peer = a;
  sba.ibgp = true;
  net.device(b).bgp->sessions.push_back(sba);
  net.device(a).bgp->originated.push_back(*Prefix::parse("20.0.0.0/16"));

  BgpProcess proc(net, *Prefix::parse("20.0.0.0/16"), {a});
  ModelContext ctx;
  ctx.net = &net;

  AdCache cache;
  cache.reset(1);
  SearchStats stats;

  const FakeUpstream near(3), far(9);
  RouteId results[2];
  const FakeUpstream* ups[2] = {&near, &far};
  for (int i = 0; i < 2; ++i) {
    ctx.upstream = ups[i];
    proc.prepare(net.topo.no_failures(), ctx);
    // New generation per upstream outcome — what check_failure_set does.
    cache.invalidate();
    cache.bind(0, proc, net.topo.node_count());
    const RouteId origin = proc.origin_route(a, ctx);
    ASSERT_EQ(proc.peers(b).size(), 1u);
    results[i] = cache.advertised(proc, 0, b, 0, a, origin, ctx, stats);
    ASSERT_NE(results[i], kNoRoute);
    // Matches a cache-free computation under the same upstream.
    EXPECT_EQ(results[i], proc.advertised(a, b, origin, ctx));
  }
  // The two outcomes produce different routes (metric differs): had the
  // first generation's entry been reused, results would have aliased.
  EXPECT_NE(results[0], results[1]);
  EXPECT_EQ(ctx.routes.get(results[0]).metric, 3u);
  EXPECT_EQ(ctx.routes.get(results[1]).metric, 9u);
  EXPECT_EQ(stats.ad_cache_hits, 0u);
  EXPECT_EQ(stats.ad_cache_misses, 2u);
}

TEST(AdCache, SpfPassRunsBindNoCache) {
  // Loop freedom on the K=4 OSPF fat tree under at most one failure: every
  // phase is SPF-ordered and runs as one pass (docs/architecture.md
  // "SPF-ordered phases"), which computes each advertisement once and never
  // consults the memo, so no failure set binds it.
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const PecSet pecs = compute_pecs(ft.net);
  const Pec& pec = pecs.pecs[pecs.find(ft.edge_prefixes[0].addr())];
  const LoopFreedomPolicy loop;
  ExploreOptions opts;
  opts.max_failures = 1;
  Explorer ex(ft.net, pec, make_tasks(ft.net, pec), loop, opts);
  const ExploreResult r = ex.run();
  ASSERT_EQ(r.verdict(), Verdict::kHolds);
  ASSERT_GT(r.stats.failure_sets, 1u);
  EXPECT_EQ(r.stats.ad_cache_hits + r.stats.ad_cache_misses, 0u);
  EXPECT_EQ(r.stats.bytes_ad_cache, 0u);
}

}  // namespace
}  // namespace plankton
