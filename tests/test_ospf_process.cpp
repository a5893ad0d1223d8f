// OSPF RPVP adapter: advertisement arithmetic, ranking, ECMP merging,
// SPF-order deterministic-node selection and settle order, protocol-domain
// masking, parallel links, and the incremental SPF against a Dijkstra
// written here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "protocols/ospf.hpp"
#include "support/random_net.hpp"
#include "workload/as_topo.hpp"

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

// ---------------------------------------------------------------------------
// Incremental SPF against an independent oracle
// ---------------------------------------------------------------------------

/// The SPF of `origins` under `failures`, read from the topology alone: an
/// O(V^2) Dijkstra that settles the unsettled node of least (dist, id), the
/// live OSPF peers of each node (each once, in the order of its first live
/// link, at the cost of its cheapest live link), and each reachable
/// non-origin's parents among them.
struct OracleSpf {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> order;
  std::vector<std::vector<NodeId>> peers;
  std::vector<std::vector<NodeId>> parents;
};

OracleSpf oracle_spf(const Network& net, const std::vector<NodeId>& origins,
                     const FailureSet& failures) {
  const std::size_t n = net.topo.node_count();
  OracleSpf o;
  o.dist.assign(n, kInfiniteCost);
  o.peers.resize(n);
  o.parents.resize(n);
  std::vector<std::vector<std::uint32_t>> cost(n);  // x -> peers[x][i]
  for (NodeId x = 0; x < n; ++x) {
    if (!net.device(x).ospf.enabled) continue;
    for (const Adjacency& adj : net.topo.neighbors(x)) {
      if (!net.device(adj.neighbor).ospf.enabled || failures.is_failed(adj.link)) {
        continue;
      }
      const std::uint32_t c = net.topo.link(adj.link).cost_from(x);
      std::size_t i = 0;
      while (i < o.peers[x].size() && o.peers[x][i] != adj.neighbor) ++i;
      if (i == o.peers[x].size()) {
        o.peers[x].push_back(adj.neighbor);
        cost[x].push_back(c);
      } else if (c < cost[x][i]) {
        cost[x][i] = c;
      }
    }
  }
  const auto cost_to = [&](NodeId from, NodeId to) {
    for (std::size_t i = 0; i < o.peers[from].size(); ++i) {
      if (o.peers[from][i] == to) return cost[from][i];
    }
    return kInfiniteCost;
  };
  for (const NodeId s : origins) o.dist[s] = 0;
  std::vector<std::uint8_t> settled(n, 0);
  for (;;) {
    NodeId u = kNoNode;
    for (NodeId v = 0; v < n; ++v) {
      if (settled[v] == 0 && o.dist[v] != kInfiniteCost &&
          (u == kNoNode || o.dist[v] < o.dist[u])) {
        u = v;
      }
    }
    if (u == kNoNode) break;
    settled[u] = 1;
    o.order.push_back(u);
    for (const NodeId v : o.peers[u]) {
      const std::uint64_t cand = std::uint64_t{o.dist[u]} + cost_to(v, u);
      if (settled[v] == 0 && cand < o.dist[v]) {
        o.dist[v] = static_cast<std::uint32_t>(cand);
      }
    }
  }
  for (NodeId x = 0; x < n; ++x) {
    if (o.dist[x] == kInfiniteCost ||
        std::find(origins.begin(), origins.end(), x) != origins.end()) {
      continue;
    }
    for (std::size_t i = 0; i < o.peers[x].size(); ++i) {
      const NodeId p = o.peers[x][i];
      if (o.dist[p] != kInfiniteCost &&
          std::uint64_t{o.dist[p]} + cost[x][i] == o.dist[x]) {
        o.parents[x].push_back(p);
      }
    }
  }
  return o;
}

template <typename T>
std::vector<T> as_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Prepares one process under the empty set, every single link and every
/// pair of links, nested (each pair after its first link's single, so
/// consecutive sets share a link or share none), and the empty set again,
/// comparing distances, settle order, live peers and parents with the
/// oracle after each. Returns the number of sets checked; stops at the
/// first mismatch.
std::uint64_t expect_matches_oracle(const Network& net,
                                    const std::vector<NodeId>& origins) {
  OspfProcess proc(net, *Prefix::parse("10.0.0.0/16"), origins);
  ModelContext ctx;
  ctx.net = &net;
  std::uint64_t checked = 0;
  const auto matches = [&](const FailureSet& f) {
    proc.prepare(f, ctx);
    ++checked;
    const OracleSpf o = oracle_spf(net, origins, f);
    std::ostringstream where;
    where << "failures " << f.str() << ", ";
    if (as_vector(proc.spf_order()) != o.order) {
      ADD_FAILURE() << where.str() << "settle order differs";
      return false;
    }
    for (NodeId x = 0; x < net.topo.node_count(); ++x) {
      if (proc.spf_dist(x) != o.dist[x]) {
        ADD_FAILURE() << where.str() << "dist of " << x << ": "
                      << proc.spf_dist(x) << " vs " << o.dist[x];
        return false;
      }
      if (as_vector(proc.peers(x)) != o.peers[x]) {
        ADD_FAILURE() << where.str() << "live peers of " << x << " differ";
        return false;
      }
      if (as_vector(proc.spf_parents(x)) != o.parents[x]) {
        ADD_FAILURE() << where.str() << "parents of " << x << " differ";
        return false;
      }
    }
    return true;
  };
  const std::size_t links = net.topo.link_count();
  if (!matches(net.topo.no_failures())) return checked;
  for (LinkId i = 0; i < links; ++i) {
    FailureSet single = net.topo.no_failures();
    single.fail(i);
    if (!matches(single)) return checked;
    for (LinkId j = i + 1; j < links; ++j) {
      FailureSet pair = single;
      pair.fail(j);
      if (!matches(pair)) return checked;
    }
  }
  matches(net.topo.no_failures());
  return checked;
}

int oracle_instances() {
  const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
  if (v != nullptr && std::atoi(v) > 0) return std::atoi(v);
  return 200;
}

TEST(OspfProcess, IncrementalSpfMatchesDijkstra) {
  const int count = oracle_instances();
  std::uint64_t sets = 0;
  // Random OSPF graphs with asymmetric costs; a quarter of them also get
  // parallel links, a quarter zero-cost directions, and every fifth a
  // device without OSPF.
  for (int seed = 1; seed <= count; ++seed) {
    testsupport::detail::Rng rng(static_cast<std::uint64_t>(seed));
    const std::size_t n = 3 + rng() % 10;
    Network net = testsupport::detail::random_ospf_net(rng, n);
    std::vector<NodeId> origins;
    for (NodeId x = 0; x < n; ++x) {
      if (!net.device(x).ospf.originated.empty()) origins.push_back(x);
    }
    if (seed % 3 == 0) {
      const NodeId extra = testsupport::detail::pick_node(rng, n);
      if (extra != origins.front()) origins.push_back(extra);  // anycast
    }
    const std::size_t base_links = net.topo.link_count();
    for (LinkId l = 0; l < base_links; ++l) {
      net.topo.set_link_cost(l, 1 + rng() % 9, 1 + rng() % 9);
    }
    if (seed % 4 == 2 || seed % 4 == 3) {
      for (int k = 0; k < 2; ++k) {
        const Link l = net.topo.link(static_cast<LinkId>(rng() % base_links));
        net.topo.add_link(l.a, l.b, 1 + rng() % 9, 1 + rng() % 9);
      }
    }
    if (seed % 4 == 3) {
      for (int k = 0; k < 2; ++k) {
        const auto l = static_cast<LinkId>(rng() % net.topo.link_count());
        const Link& link = net.topo.link(l);
        net.topo.set_link_cost(l, k == 0 ? 0 : link.cost_ab, 0);
      }
    }
    if (seed % 5 == 0) {
      const NodeId off = testsupport::detail::pick_node(rng, n);
      if (std::find(origins.begin(), origins.end(), off) == origins.end()) {
        net.device(off).ospf.enabled = false;
      }
    }
    SCOPED_TRACE("random OSPF seed " + std::to_string(seed));
    sets += expect_matches_oracle(net, origins);
    if (HasFailure()) return;
  }
  // AS topologies of 12-57 nodes, every fifth node an origin.
  for (int i = 0; i < std::max(2, count / 50); ++i) {
    const int nodes = 12 + (i % 16) * 3;
    const AsTopo topo = make_as_topo("oracle-as-" + std::to_string(i), nodes);
    std::vector<NodeId> origins;
    for (NodeId x = 0; x < topo.net.topo.node_count(); x += 5) origins.push_back(x);
    SCOPED_TRACE("AS topology " + std::to_string(i) + " of " +
                 std::to_string(nodes) + " nodes");
    sets += expect_matches_oracle(topo.net, origins);
    if (HasFailure()) return;
  }
  RecordProperty("failure_sets", std::to_string(sets));
}

}  // namespace
}  // namespace plankton
