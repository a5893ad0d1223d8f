// Seeded random network/config instances for the differential fuzz harness
// (tests/test_engine_differential.cpp).
//
// Every instance is a pure function of its 64-bit seed: topology family
// (ring / fat-tree / random OSPF / random eBGP / mixed protocol+static),
// device configuration (including random local-pref route maps, the source
// of genuine multi-stable-state searches), policy, and failure budget. A
// failing fuzz instance therefore reproduces from the seed alone — print it,
// re-run with it, done (docs/architecture.md, "Exploration strategies").
//
// Sizes are deliberately tiny (3–8 devices): the harness compares *complete*
// explorations across every engine, so instances must be exhaustively
// checkable in milliseconds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "config/network.hpp"
#include "policy/policy.hpp"
#include "rpvp/explorer.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton::testsupport {

struct RandomInstance {
  Network net;
  std::string kind;                 ///< topology family, for failure messages
  std::unique_ptr<Policy> policy;
  int max_failures = 0;
  /// Seeded §4-optimization toggles (max_failures already applied): engines
  /// must agree under *any* optimization mix, and the partially-unoptimized
  /// searches are where the move tree genuinely branches.
  ExploreOptions explore;
  /// Single-prefix pure-eBGP instances can additionally be cross-checked
  /// against the SPVP message-passing oracle (protocols/spvp.hpp).
  bool spvp_eligible = false;
  Prefix bgp_prefix;
  std::vector<NodeId> bgp_origins;
};

namespace detail {

using Rng = std::mt19937_64;

inline NodeId pick_node(Rng& rng, std::size_t n) {
  return static_cast<NodeId>(rng() % n);
}

/// "r<i>", built by appending: GCC 12 misreports -Wrestrict when a literal
/// is prepended to a temporary string.
inline std::string router_name(std::size_t i) {
  std::string name = "r";
  name += std::to_string(i);
  return name;
}

/// Connected random graph: spanning tree + `extra` random chords.
inline void random_edges(Rng& rng, std::size_t n, std::size_t extra,
                         const std::function<void(NodeId, NodeId)>& edge) {
  for (std::size_t i = 1; i < n; ++i) {
    edge(static_cast<NodeId>(i), static_cast<NodeId>(rng() % i));
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const NodeId a = pick_node(rng, n);
    const NodeId b = pick_node(rng, n);
    if (a != b) edge(a, b);
  }
}

inline void add_bgp_session(Network& net, NodeId a, NodeId b) {
  if (net.device(a).bgp->session_with(b) != nullptr) return;
  if (net.topo.find_link(a, b) == kNoLink) net.topo.add_link(a, b);
  BgpSession sa;
  sa.peer = b;
  net.device(a).bgp->sessions.push_back(sa);
  BgpSession sb;
  sb.peer = a;
  net.device(b).bgp->sessions.push_back(sb);
}

/// Random import local-pref clauses: the ingredient that turns BGP instances
/// into genuine multi-stable-state searches (wedgies, DISAGREE gadgets).
inline void sprinkle_local_prefs(Rng& rng, Network& net) {
  for (NodeId v = 0; v < net.topo.node_count(); ++v) {
    if (!net.device(v).bgp) continue;
    for (auto& s : net.device(v).bgp->sessions) {
      if (rng() % 3 == 0) {
        RouteMapClause clause;
        clause.action.set_local_pref = 50 + 50 * (rng() % 4);
        s.import.clauses.push_back(clause);
      }
    }
  }
}

inline Network random_ospf_net(Rng& rng, std::size_t n) {
  Network net;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = net.add_device(router_name(i));
    net.device(id).ospf.enabled = true;
    net.device(id).ospf.advertise_loopback = false;
  }
  random_edges(rng, n, n / 2, [&](NodeId a, NodeId b) {
    if (net.topo.find_link(a, b) == kNoLink) {
      net.topo.add_link(a, b, 1 + rng() % 5);
    }
  });
  net.device(pick_node(rng, n))
      .ospf.originated.push_back(*Prefix::parse("10.0.0.0/16"));
  return net;
}

inline Network random_bgp_net(Rng& rng, std::size_t n, std::vector<NodeId>& origins) {
  Network net;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = net.add_device(router_name(i));
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 65000 + static_cast<std::uint32_t>(i);
  }
  random_edges(rng, n, n / 2,
               [&](NodeId a, NodeId b) { add_bgp_session(net, a, b); });
  origins = {0};
  net.device(0).bgp->originated.push_back(*Prefix::parse("10.0.0.0/16"));
  sprinkle_local_prefs(rng, net);
  return net;
}

/// OSPF domain plus static routes: drop statics, adjacency statics shadowing
/// a sub-prefix, and (sometimes) a recursive via-IP static towards another
/// device's loopback — the cross-PEC dependency case.
inline Network mixed_net(Rng& rng, std::size_t n) {
  Network net;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = net.add_device(
        router_name(i),
        IpAddr(10, 255, static_cast<std::uint8_t>(i), 1));
    net.device(id).ospf.enabled = true;
  }
  random_edges(rng, n, n / 2, [&](NodeId a, NodeId b) {
    if (net.topo.find_link(a, b) == kNoLink) {
      net.topo.add_link(a, b, 1 + rng() % 3);
    }
  });
  net.device(pick_node(rng, n))
      .ospf.originated.push_back(*Prefix::parse("10.0.0.0/16"));
  const NodeId s = pick_node(rng, n);
  switch (rng() % 3) {
    case 0: {  // null route for a sub-prefix (policy-visible blackhole)
      StaticRoute sr;
      sr.dst = *Prefix::parse("10.0.128.0/17");
      sr.drop = true;
      net.device(s).statics.push_back(sr);
      break;
    }
    case 1: {  // adjacency static shadowing the OSPF route
      const auto neigh = net.topo.neighbors(s);
      if (!neigh.empty()) {
        StaticRoute sr;
        sr.dst = *Prefix::parse("10.0.0.0/17");
        sr.via_neighbor = neigh[rng() % neigh.size()].neighbor;
        net.device(s).statics.push_back(sr);
      }
      break;
    }
    default: {  // recursive static via another device's loopback
      const NodeId t = pick_node(rng, n);
      if (t != s) {
        StaticRoute sr;
        sr.dst = *Prefix::parse("10.0.0.0/17");
        sr.via_ip = net.device(t).loopback;
        net.device(s).statics.push_back(sr);
      }
      break;
    }
  }
  return net;
}

inline std::unique_ptr<Policy> random_policy(Rng& rng, const Network& net,
                                             std::span<const NodeId> avoid) {
  const std::size_t n = net.topo.node_count();
  const auto pick_source = [&]() -> NodeId {
    for (int tries = 0; tries < 16; ++tries) {
      const NodeId c = pick_node(rng, n);
      bool bad = false;
      for (const NodeId a : avoid) bad = bad || a == c;
      if (!bad) return c;
    }
    return static_cast<NodeId>(n - 1);
  };
  switch (rng() % 4) {
    case 0: return std::make_unique<ReachabilityPolicy>(
        std::vector<NodeId>{pick_source()});
    case 1: return std::make_unique<LoopFreedomPolicy>();
    case 2: return std::make_unique<BlackholeFreedomPolicy>(
        std::vector<NodeId>{pick_source()});
    default:
      return std::make_unique<BoundedPathLengthPolicy>(
          std::vector<NodeId>{pick_source()},
          static_cast<std::uint32_t>(1 + rng() % n));
  }
}

}  // namespace detail

/// Deterministically builds fuzz instance `seed`.
inline RandomInstance make_random_instance(std::uint64_t seed) {
  detail::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  RandomInstance inst;
  inst.bgp_prefix = *Prefix::parse("10.0.0.0/16");
  switch (rng() % 5) {
    case 0: {  // OSPF ring (degrades to a path under failures)
      const int n = 4 + static_cast<int>(rng() % 4);
      inst.net = make_ring(n, 1 + rng() % 3);
      inst.kind = "ring/" + std::to_string(n);
      inst.max_failures = static_cast<int>(rng() % 3);
      break;
    }
    case 1: {  // smallest fat tree, OSPF or RFC 7938 eBGP
      FatTreeOptions o;
      o.k = 2;
      const bool bgp = rng() % 2 == 0;
      o.routing = bgp ? FatTreeOptions::Routing::kBgpRfc7938
                      : FatTreeOptions::Routing::kOspf;
      inst.net = make_fat_tree(o).net;
      inst.kind = bgp ? "fat-tree-bgp/2" : "fat-tree-ospf/2";
      inst.max_failures = static_cast<int>(rng() % 2);
      break;
    }
    case 2: {  // random OSPF graph
      const std::size_t n = 4 + rng() % 5;
      inst.net = detail::random_ospf_net(rng, n);
      inst.kind = "ospf-rand/" + std::to_string(n);
      inst.max_failures = static_cast<int>(rng() % 2);
      break;
    }
    case 3: {  // random eBGP graph with local-pref route maps
      const std::size_t n = 3 + rng() % 4;
      inst.net = detail::random_bgp_net(rng, n, inst.bgp_origins);
      inst.kind = "bgp-rand/" + std::to_string(n);
      inst.max_failures = static_cast<int>(rng() % 2);
      // The SPVP oracle enumerates every message interleaving; cap its
      // instances at 5 nodes to keep the cross-check affordable.
      inst.spvp_eligible = n <= 5;
      break;
    }
    default: {  // OSPF + static mix (incl. recursive cross-PEC statics)
      const std::size_t n = 4 + rng() % 3;
      inst.net = detail::mixed_net(rng, n);
      inst.kind = "mixed/" + std::to_string(n);
      inst.max_failures = static_cast<int>(rng() % 2);
      break;
    }
  }
  inst.policy = detail::random_policy(rng, inst.net, inst.bgp_origins);

  // Seeded optimization mix. Exploration equivalence must hold under any
  // combination (each §4 reduction is individually sound and complete), and
  // disabling deterministic-node execution / ECMP merging is what turns the
  // mostly-linear optimized searches into genuinely branching move trees.
  inst.explore.max_failures = inst.max_failures;
  if (rng() % 2 == 0) inst.explore.deterministic_nodes = false;
  if (rng() % 4 == 0) inst.explore.decision_independence = false;
  if (rng() % 4 == 0) inst.explore.policy_pruning = false;
  if (rng() % 3 == 0) inst.explore.lec_failures = false;
  const bool small = inst.net.topo.node_count() <= 6 && inst.max_failures <= 1;
  if (small && rng() % 3 == 0) inst.explore.merge_updates = false;
  return inst;
}

}  // namespace plankton::testsupport
