// FIB assembly (LPM + admin distance + recursive resolution) and the
// forwarding-graph walks behind every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "dataplane/fib.hpp"
#include "netbase/hash.hpp"
#include "pec/pec.hpp"
#include "policy/policy.hpp"
#include "rpvp/explorer.hpp"
#include "support/random_net.hpp"

namespace plankton {
namespace {

/// Line a--b--c; c originates; builds a PEC and hand-written RIBs.
struct LineFixture {
  Network net;
  PecSet pecs;
  ModelContext ctx;
  std::vector<RouteId> ospf_rib;

  LineFixture() {
    const NodeId a = net.add_device("a");
    const NodeId b = net.add_device("b");
    const NodeId c = net.add_device("c");
    net.topo.add_link(a, b, 1);
    net.topo.add_link(b, c, 1);
    for (NodeId n = 0; n < 3; ++n) {
      net.device(n).ospf.enabled = true;
      net.device(n).ospf.advertise_loopback = false;
    }
    net.device(c).ospf.originated.push_back(*Prefix::parse("10.0.0.0/24"));
    pecs = compute_pecs(net);
    ctx.net = &net;
    // RIB: c = origin (ε), b -> c, a -> b -> c.
    Route origin;
    origin.path = kEmptyPath;
    const RouteId rc = ctx.routes.intern(std::move(origin));
    Route rb;
    rb.path = ctx.paths.cons(c, kEmptyPath);
    rb.metric = 1;
    const RouteId rbi = ctx.routes.intern(std::move(rb));
    Route ra;
    ra.path = ctx.paths.cons(b, ctx.paths.cons(c, kEmptyPath));
    ra.metric = 2;
    const RouteId rai = ctx.routes.intern(std::move(ra));
    ospf_rib = {rai, rbi, rc};
  }

  [[nodiscard]] const Pec& pec() { return pecs.pecs[pecs.routed()[0]]; }
  [[nodiscard]] DataPlane build(const FailureSet& failures) {
    const TaskRib rib{0, Protocol::kOspf, ospf_rib};
    return build_dataplane(net, pec(), failures, {{rib}}, ctx);
  }
};

TEST(Fib, BasicForwardingChain) {
  LineFixture fx;
  const DataPlane dp = fx.build(fx.net.topo.no_failures());
  EXPECT_EQ(dp.at(0).kind, FwdKind::kForward);
  EXPECT_EQ(dp.at(0).nexthops, (std::vector<NodeId>{1}));
  EXPECT_EQ(dp.at(1).nexthops, (std::vector<NodeId>{2}));
  EXPECT_EQ(dp.at(2).kind, FwdKind::kLocal);
}

TEST(Fib, StaticBeatsOspfByAdminDistance) {
  LineFixture fx;
  // a gets a static route for the same exact prefix via... itself has only
  // neighbor b; point it at b anyway: same next hop but source must be static.
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.0.0.0/24");
  sr.via_neighbor = 1;
  fx.net.device(0).statics.push_back(sr);
  fx.pecs = compute_pecs(fx.net);
  const DataPlane dp = fx.build(fx.net.topo.no_failures());
  EXPECT_EQ(dp.at(0).source, Protocol::kStatic);
}

TEST(Fib, StaticDropCreatesBlackhole) {
  LineFixture fx;
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.0.0.0/24");
  sr.drop = true;
  fx.net.device(0).statics.push_back(sr);
  fx.pecs = compute_pecs(fx.net);
  const DataPlane dp = fx.build(fx.net.topo.no_failures());
  EXPECT_EQ(dp.at(0).kind, FwdKind::kDrop);
  EXPECT_EQ(dp.at(0).source, Protocol::kStatic);
}

TEST(Fib, StaticViaFailedLinkFallsThroughToOspf) {
  LineFixture fx;
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.0.0.0/24");
  sr.via_neighbor = 1;
  fx.net.device(0).statics.push_back(sr);
  fx.pecs = compute_pecs(fx.net);
  FailureSet failed(fx.net.topo.link_count());
  failed.fail(0);  // a--b link down: static not installable
  const DataPlane dp = fx.build(failed);
  // OSPF route (stale RIB in this hand-built fixture) still installs.
  EXPECT_EQ(dp.at(0).source, Protocol::kOspf);
}

TEST(Fib, LpmPrefersMoreSpecificPrefix) {
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  const NodeId c = net.add_device("c");
  net.topo.add_link(a, b);
  net.topo.add_link(a, c);
  for (NodeId n = 0; n < 3; ++n) net.device(n).ospf.enabled = true;
  // /16 originated by b, /24 (more specific) by c.
  net.device(b).ospf.originated.push_back(*Prefix::parse("10.1.0.0/16"));
  net.device(c).ospf.originated.push_back(*Prefix::parse("10.1.2.0/24"));
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.find(IpAddr(10, 1, 2, 9))];
  ASSERT_EQ(pec.prefixes.size(), 2u);

  ModelContext ctx;
  ctx.net = &net;
  Route origin;
  origin.path = kEmptyPath;
  const RouteId ro = ctx.routes.intern(std::move(origin));
  Route via_b;
  via_b.path = ctx.paths.cons(b, kEmptyPath);
  Route via_c;
  via_c.path = ctx.paths.cons(c, kEmptyPath);
  const RouteId rvb = ctx.routes.intern(std::move(via_b));
  const RouteId rvc = ctx.routes.intern(std::move(via_c));
  // Task 0 = /24 (most specific first), task 1 = /16.
  const std::vector<RouteId> rib24 = {rvc, kNoRoute, ro};
  const std::vector<RouteId> rib16 = {rvb, ro, kNoRoute};
  const TaskRib t24{0, Protocol::kOspf, rib24};
  const TaskRib t16{1, Protocol::kOspf, rib16};
  const DataPlane dp = build_dataplane(net, pec, net.topo.no_failures(),
                                       {{t24, t16}}, ctx);
  EXPECT_EQ(dp.at(a).nexthops, (std::vector<NodeId>{c}))
      << "/24 must win over /16 at node a";
}

TEST(Walk, DeliveredPath) {
  LineFixture fx;
  const DataPlane dp = fx.build(fx.net.topo.no_failures());
  const WalkStats w = walk_from(dp, 0);
  EXPECT_TRUE(w.delivered_all);
  EXPECT_FALSE(w.dropped);
  EXPECT_FALSE(w.looped);
  EXPECT_EQ(w.max_hops, 2u);
}

TEST(Walk, DetectsLoop) {
  DataPlane dp;
  dp.entries.resize(3);
  dp.entries[0] = {FwdKind::kForward, {1}, Protocol::kStatic, 0};
  dp.entries[1] = {FwdKind::kForward, {2}, Protocol::kStatic, 0};
  dp.entries[2] = {FwdKind::kForward, {0}, Protocol::kStatic, 0};
  const WalkStats w = walk_from(dp, 0);
  EXPECT_TRUE(w.looped);
  EXPECT_FALSE(w.delivered_any);
}

TEST(Walk, EcmpBranchesAllCounted) {
  DataPlane dp;
  dp.entries.resize(4);
  dp.entries[0] = {FwdKind::kForward, {1, 2}, Protocol::kOspf, 0};
  dp.entries[1] = {FwdKind::kForward, {3}, Protocol::kOspf, 0};
  dp.entries[2] = {FwdKind::kDrop, {}, Protocol::kOspf, 0};
  dp.entries[3] = {FwdKind::kLocal, {}, Protocol::kOspf, 0};
  const WalkStats w = walk_from(dp, 0);
  EXPECT_TRUE(w.delivered_any);
  EXPECT_FALSE(w.delivered_all) << "one branch drops";
  EXPECT_TRUE(w.dropped);
}

TEST(Walk, WaypointCrossing) {
  DataPlane dp;
  dp.entries.resize(4);
  dp.entries[0] = {FwdKind::kForward, {1, 2}, Protocol::kOspf, 0};
  dp.entries[1] = {FwdKind::kForward, {3}, Protocol::kOspf, 0};
  dp.entries[2] = {FwdKind::kForward, {3}, Protocol::kOspf, 0};
  dp.entries[3] = {FwdKind::kLocal, {}, Protocol::kOspf, 0};
  const std::vector<NodeId> wp1{1};
  EXPECT_FALSE(walk_from(dp, 0, wp1).hit_waypoint_all)
      << "the branch via 2 bypasses waypoint 1";
  const std::vector<NodeId> wp_both{1, 2};
  EXPECT_TRUE(walk_from(dp, 0, wp_both).hit_waypoint_all);
  const std::vector<NodeId> wp_dst{3};
  EXPECT_TRUE(walk_from(dp, 0, wp_dst).hit_waypoint_all);
}

TEST(Walk, EcmpFanoutIsPolynomial) {
  // 2-wide ECMP diamond chain: exponentially many paths, walk must stay fast.
  DataPlane dp;
  constexpr int kLayers = 40;
  dp.entries.resize(2 * kLayers + 2);
  for (int i = 0; i < kLayers; ++i) {
    const NodeId left = static_cast<NodeId>(2 * i + 1);
    const NodeId right = static_cast<NodeId>(2 * i + 2);
    const NodeId next_left = static_cast<NodeId>(2 * i + 3);
    const NodeId next_right = static_cast<NodeId>(2 * i + 4);
    if (i + 1 < kLayers) {
      dp.entries[left] = {FwdKind::kForward, {next_left, next_right}, Protocol::kOspf, 0};
      dp.entries[right] = {FwdKind::kForward, {next_left, next_right}, Protocol::kOspf, 0};
    } else {
      const NodeId sink = static_cast<NodeId>(2 * kLayers + 1);
      dp.entries[left] = {FwdKind::kForward, {sink}, Protocol::kOspf, 0};
      dp.entries[right] = {FwdKind::kForward, {sink}, Protocol::kOspf, 0};
    }
  }
  dp.entries[0] = {FwdKind::kForward, {1, 2}, Protocol::kOspf, 0};
  dp.entries[2 * kLayers + 1] = {FwdKind::kLocal, {}, Protocol::kOspf, 0};
  const WalkStats w = walk_from(dp, 0);  // must terminate instantly
  EXPECT_TRUE(w.delivered_all);
  EXPECT_EQ(w.max_hops, static_cast<std::uint32_t>(kLayers + 1));
}

TEST(PolicySignature, DiscriminatesAndMatches) {
  DataPlane a;
  a.entries.resize(3);
  a.entries[0] = {FwdKind::kForward, {1}, Protocol::kOspf, 0};
  a.entries[1] = {FwdKind::kForward, {2}, Protocol::kOspf, 0};
  a.entries[2] = {FwdKind::kLocal, {}, Protocol::kOspf, 0};
  DataPlane b = a;  // identical
  DataPlane c = a;
  c.entries[1] = {FwdKind::kDrop, {}, Protocol::kOspf, 0};
  const std::vector<NodeId> sources{0};
  const std::vector<NodeId> interesting{1};
  WalkMemo memo;
  const std::uint64_t sig_a = memo.signature(a, sources, interesting);
  EXPECT_EQ(sig_a, memo.signature(b, sources, interesting));
  EXPECT_NE(sig_a, memo.signature(c, sources, interesting));
}

/// Records the RIBs of the first 64 converged states it is shown.
class RibRecorder final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "rib-recorder"; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string&) const override {
    if (states.size() < 64) {
      std::vector<std::vector<RouteId>> ribs;
      for (const TaskRib& rib : view.ribs) {
        ribs.emplace_back(rib.routes.begin(), rib.routes.end());
      }
      states.push_back(std::move(ribs));
      layout.assign(view.ribs.begin(), view.ribs.end());
    }
    return true;
  }
  [[nodiscard]] bool supports_equivalence() const override { return false; }

  mutable std::vector<std::vector<std::vector<RouteId>>> states;  ///< [state][task]
  mutable std::vector<TaskRib> layout;  ///< prefix and protocol per task
};

TEST(Fib, InPlaceRebuildMatchesFreshBuild) {
  // A warm DataPlane reused across converged states must end up exactly as
  // a fresh build: stale next hops and kinds from the previous state go.
  LineFixture fx;
  DataPlane dp;
  dp.entries.resize(3);
  dp.entries[0] = {FwdKind::kForward, {2, 1, 0}, Protocol::kStatic, 7};
  dp.entries[1] = {FwdKind::kLocal, {}, Protocol::kEbgp, 3};
  dp.entries[2] = {FwdKind::kForward, {0}, Protocol::kIbgp, 1};
  const TaskRib rib{0, Protocol::kOspf, fx.ospf_rib};
  build_dataplane(fx.net, fx.pec(), fx.net.topo.no_failures(), {{rib}}, fx.ctx, dp);
  const DataPlane fresh = fx.build(fx.net.topo.no_failures());
  ASSERT_EQ(dp.entries.size(), fresh.entries.size());
  for (NodeId n = 0; n < dp.entries.size(); ++n) {
    EXPECT_EQ(dp.at(n).kind, fresh.at(n).kind) << "node " << n;
    EXPECT_EQ(dp.at(n).nexthops, fresh.at(n).nexthops) << "node " << n;
    EXPECT_EQ(dp.at(n).source, fresh.at(n).source) << "node " << n;
    EXPECT_EQ(dp.at(n).prefix_idx, fresh.at(n).prefix_idx) << "node " << n;
  }

  // Patched in part, by the rule Explorer::update_dataplane applies between
  // converged states: rebuild the entries whose routes changed and every
  // entry with a static route, which alone reads the failure set. Patching
  // a warm plane at any superset of those nodes, under any failure set,
  // must give a fresh build, and the running one-pass signature, updated
  // only at the patched entries, must equal the sum from scratch. The
  // converged RIBs come from real explorations of the random corpus (OSPF,
  // eBGP, statics, several prefixes per PEC).
  std::mt19937_64 rng(0xf1b);
  WalkMemo memo;
  std::size_t patches = 0;
  std::size_t kept = 0;  // entries a patch did not rebuild
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const testsupport::RandomInstance inst = testsupport::make_random_instance(seed);
    const Network& net = inst.net;
    const std::size_t nodes = net.topo.node_count();
    const PecSet pecs = compute_pecs(net);
    for (const PecId id : pecs.routed()) {
      const Pec& pec = pecs.pecs[id];
      const RibRecorder recorder;
      ExploreOptions opts;
      opts.max_failures = 1;
      opts.budget.max_states = 20000;
      Explorer ex(net, pec, make_tasks(net, pec), recorder, opts);
      (void)ex.run();
      if (recorder.states.empty()) continue;
      const ModelContext& ctx = ex.context();
      std::vector<std::uint8_t> has_static(nodes, 0);
      for (const PecPrefix& pp : pec.prefixes) {
        for (const auto& [dev, idx] : pp.static_routes) has_static[dev] = 1;
      }
      const auto ribs_of = [&](std::size_t state) {
        std::vector<TaskRib> ribs = recorder.layout;
        for (std::size_t t = 0; t < ribs.size(); ++t) {
          ribs[t].routes = recorder.states[state][t];
        }
        return ribs;
      };
      const auto random_failures = [&] {
        FailureSet f = net.topo.no_failures();
        if (net.topo.link_count() > 0 && rng() % 2 == 0) {
          f.fail(static_cast<LinkId>(rng() % net.topo.link_count()));
        }
        return f;
      };

      DataPlane warm;
      warm.entries.resize(nodes);
      std::uint64_t sig = memo.signature(warm, {}, {});
      std::size_t built_from = recorder.states.size();  // none yet
      for (int step = 0; step < 40; ++step) {
        const std::size_t state = rng() % recorder.states.size();
        const std::vector<TaskRib> ribs = ribs_of(state);
        const FailureSet failures = random_failures();
        for (NodeId n = 0; n < nodes; ++n) {
          bool stale = built_from == recorder.states.size() || has_static[n] != 0 ||
                       rng() % 5 == 0;
          for (std::size_t t = 0; t < ribs.size() && !stale; ++t) {
            stale = recorder.states[built_from][t][n] != ribs[t].routes[n];
          }
          if (!stale) {
            ++kept;
            continue;
          }
          sig -= fib_entry_term(n, warm.entries[n]);
          build_entry(net, pec, failures, ribs, ctx, n, warm.entries[n]);
          sig += fib_entry_term(n, warm.entries[n]);
        }
        built_from = state;
        ++patches;
        ASSERT_EQ(warm, build_dataplane(net, pec, failures, ribs, ctx))
            << "seed " << seed << " pec " << pec.str() << " step " << step;
        ASSERT_EQ(sig, memo.signature(warm, {}, {}))
            << "seed " << seed << " pec " << pec.str() << " step " << step;
      }
    }
  }
  EXPECT_GT(patches, 1000u);
  EXPECT_GT(kept, 1000u) << "the patches rebuilt nearly every entry";
}

// -- Stamped walk memo against the per-source reference ---------------------

/// The per-source walker WalkMemo replaced: four fresh vectors per source.
/// Kept verbatim as the oracle for the stamped memo.
class ReferenceWalker {
 public:
  struct NodeWalk {
    bool delivered_all = true;
    bool delivered_any = false;
    bool dropped = false;
    bool looped = false;
    bool waypoint_ok = true;
    std::uint32_t hops = 0;
  };

  ReferenceWalker(const DataPlane& dp, std::span<const NodeId> waypoints)
      : dp_(dp), waypoints_(waypoints) {
    const std::size_t n = dp.entries.size();
    memo_[0].resize(n);
    memo_[1].resize(n);
    color_[0].assign(n, 0);
    color_[1].assign(n, 0);
  }

  const NodeWalk& run(NodeId n, bool crossed) {
    if (!crossed && std::find(waypoints_.begin(), waypoints_.end(), n) !=
                        waypoints_.end()) {
      crossed = true;
    }
    const int c = crossed ? 1 : 0;
    if (color_[c][n] == 2) return memo_[c][n];
    NodeWalk& w = memo_[c][n];
    if (color_[c][n] == 1) {
      w.looped = true;
      w.delivered_all = false;
      return w;
    }
    color_[c][n] = 1;
    const FibEntry& e = dp_.at(n);
    if (e.kind == FwdKind::kLocal) {
      w.delivered_any = true;
      if (!waypoints_.empty() && !crossed) w.waypoint_ok = false;
    } else if (e.kind == FwdKind::kDrop || e.nexthops.empty()) {
      w.dropped = true;
      w.delivered_all = false;
    } else {
      for (const NodeId next : e.nexthops) {
        const NodeWalk sub = run(next, crossed);
        w.delivered_all = w.delivered_all && sub.delivered_all;
        w.delivered_any = w.delivered_any || sub.delivered_any;
        w.dropped = w.dropped || sub.dropped;
        w.looped = w.looped || sub.looped;
        w.waypoint_ok = w.waypoint_ok && sub.waypoint_ok;
        w.hops = std::max(w.hops, sub.hops + 1);
      }
    }
    color_[c][n] = 2;
    return w;
  }

 private:
  const DataPlane& dp_;
  std::span<const NodeId> waypoints_;
  std::vector<NodeWalk> memo_[2];
  std::vector<std::uint8_t> color_[2];
};

WalkStats reference_walk(const DataPlane& dp, NodeId src,
                         std::span<const NodeId> waypoints) {
  ReferenceWalker walker(dp, waypoints);
  const ReferenceWalker::NodeWalk w = walker.run(src, false);
  WalkStats out;
  out.delivered_all = w.delivered_all && !w.looped;
  out.delivered_any = w.delivered_any;
  out.dropped = w.dropped;
  out.looped = w.looped;
  out.max_hops = w.hops;
  out.hit_waypoint_all = w.waypoint_ok;
  return out;
}

/// The signature before stamps: a per-source std::fill of the depth array.
/// Empty `sources` means every node, as in WalkMemo::signature.
std::uint64_t reference_signature(const DataPlane& dp,
                                  std::span<const NodeId> sources,
                                  std::span<const NodeId> interesting) {
  const std::size_t node_count = dp.entries.size();
  std::vector<NodeId> every_node(node_count);
  for (NodeId n = 0; n < node_count; ++n) every_node[n] = n;
  if (sources.empty()) sources = every_node;
  std::vector<std::uint8_t> is_interesting(node_count, interesting.empty() ? 1 : 0);
  for (const NodeId n : interesting) is_interesting[n] = 1;
  std::uint64_t sig = 0x2545f4914f6cdd1dull;
  std::vector<std::pair<NodeId, std::uint32_t>> frontier;
  std::vector<std::uint32_t> seen_at(node_count, ~std::uint32_t{0});
  for (const NodeId src : sources) {
    frontier.clear();
    std::fill(seen_at.begin(), seen_at.end(), ~std::uint32_t{0});
    frontier.emplace_back(src, 0);
    seen_at[src] = 0;
    sig = hash_combine(sig, src + 1);
    std::size_t cursor = 0;
    while (cursor < frontier.size()) {
      const auto [n, depth] = frontier[cursor++];
      const FibEntry& e = dp.at(n);
      if (is_interesting[n]) {
        sig = hash_combine(sig, (std::uint64_t{depth} << 32) | n);
      }
      sig = hash_combine(sig, static_cast<std::uint64_t>(e.kind) + (depth << 8));
      if (e.kind != FwdKind::kForward) continue;
      for (const NodeId next : e.nexthops) {
        if (seen_at[next] == depth + 1) continue;
        if (seen_at[next] != ~std::uint32_t{0} && seen_at[next] <= depth) continue;
        seen_at[next] = depth + 1;
        frontier.emplace_back(next, depth + 1);
      }
    }
  }
  return sig;
}

/// Random forwarding graph: local delivery, drops, forward entries with no
/// next hop, self-loops, cycles, repeated next hops and ECMP fan-out.
DataPlane random_dataplane(std::mt19937_64& rng) {
  const std::size_t n = 1 + rng() % 12;
  DataPlane dp;
  dp.entries.resize(n);
  for (auto& e : dp.entries) {
    const auto roll = rng() % 10;
    if (roll < 2) {
      e.kind = FwdKind::kLocal;
    } else if (roll == 2) {
      e.kind = FwdKind::kDrop;
    } else {
      e.kind = FwdKind::kForward;
      const std::size_t fan = roll == 3 ? 0 : 1 + rng() % 3;
      for (std::size_t i = 0; i < fan; ++i) {
        e.nexthops.push_back(static_cast<NodeId>(rng() % n));
      }
    }
  }
  return dp;
}

std::vector<NodeId> random_subset(std::mt19937_64& rng, std::size_t n,
                                  std::size_t max_size) {
  std::vector<NodeId> out;
  const std::size_t size = rng() % (max_size + 1);
  for (std::size_t i = 0; i < size; ++i) out.push_back(static_cast<NodeId>(rng() % n));
  return out;
}

bool same_walk(const WalkStats& a, const WalkStats& b) {
  return a.delivered_all == b.delivered_all && a.delivered_any == b.delivered_any &&
         a.dropped == b.dropped && a.looped == b.looped && a.max_hops == b.max_hops &&
         a.hit_waypoint_all == b.hit_waypoint_all;
}

/// A network of `n` devices r0..r{n-1}: just enough for a ConvergedView.
Network named_network(std::size_t n) {
  Network net;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    net.add_device(name);
  }
  return net;
}

TEST(WalkMemo, MatchesPerSourceReferenceOnRandomGraphs) {
  // One memo object for the whole corpus: stamps, not refills, must keep
  // every graph, waypoint set and source apart.
  std::mt19937_64 rng(0x3a1c);
  WalkMemo memo;
  for (int graph = 0; graph < 3000; ++graph) {
    const DataPlane dp = random_dataplane(rng);
    const std::size_t n = dp.entries.size();
    const std::vector<NodeId> waypoints = random_subset(rng, n, 3);
    for (const bool with_waypoints : {false, true}) {
      const std::span<const NodeId> wp =
          with_waypoints ? std::span<const NodeId>(waypoints) : std::span<const NodeId>();
      for (NodeId s = 0; s < n; ++s) {
        const WalkStats want = reference_walk(dp, s, wp);
        EXPECT_TRUE(same_walk(memo.walk_from(dp, s, wp), want))
            << "graph " << graph << " source " << s << " waypoints " << with_waypoints;
      }
    }

    // Shared generation: `looped` stays exact for every node, in any
    // order of walks, so loop freedom names the lowest looping id.
    memo.begin(dp);
    NodeId first_shared = kNoNode;
    for (NodeId s = 0; s < n; ++s) {
      const bool looped = memo.walk(s).looped;
      EXPECT_EQ(looped, reference_walk(dp, s, {}).looped)
          << "graph " << graph << " node " << s;
      if (looped && first_shared == kNoNode) first_shared = s;
    }
    NodeId first_ref = kNoNode;
    for (NodeId s = 0; s < n && first_ref == kNoNode; ++s) {
      if (reference_walk(dp, s, {}).looped) first_ref = s;
    }
    EXPECT_EQ(first_shared, first_ref) << "graph " << graph;

    const Network net = named_network(n);
    const Pec pec;
    ModelContext ctx;
    const ConvergedView view{net, pec, dp, {}, ctx, memo};
    std::string why;
    const bool holds = LoopFreedomPolicy().check(view, why);
    EXPECT_EQ(holds, first_ref == kNoNode) << "graph " << graph;
    if (!holds) {
      EXPECT_EQ(why, "forwarding loop reachable from " + net.topo.name(first_ref))
          << "graph " << graph;
    }

    const std::vector<NodeId> sources = random_subset(rng, n, 4);
    const std::vector<NodeId> interesting = random_subset(rng, n, 3);
    // With both empty the signature takes its one-pass form, which
    // OnePassSignatureSplitsPairsLikeAllSourceBfs checks instead.
    if (!sources.empty() || !interesting.empty()) {
      EXPECT_EQ(memo.signature(dp, sources, interesting),
                reference_signature(dp, sources, interesting))
          << "graph " << graph;
    }
  }
}

/// `dp` with each forwarding entry's next hops made distinct and never the
/// node itself, and no next hops on other entries: the shape of the FIBs
/// the explorer builds (ECMP sets are sorted and unique).
DataPlane fib_shaped(DataPlane dp) {
  for (NodeId n = 0; n < dp.entries.size(); ++n) {
    FibEntry& e = dp.entries[n];
    if (e.kind != FwdKind::kForward) {
      e.nexthops.clear();
      continue;
    }
    std::vector<NodeId> hops;
    for (const NodeId h : e.nexthops) {
      if (h != n && std::find(hops.begin(), hops.end(), h) == hops.end()) {
        hops.push_back(h);
      }
    }
    e.nexthops = std::move(hops);
  }
  return dp;
}

/// `dp` after one small edit (or none): a kind, a next hop, the order of
/// two next hops, or a next hop moved across the boundary between two
/// adjacent entries (the shape that collides without the count).
DataPlane edited(const DataPlane& dp, std::mt19937_64& rng) {
  DataPlane out = dp;
  const std::size_t size = out.entries.size();
  const auto n = static_cast<NodeId>(rng() % size);
  FibEntry& e = out.entries[n];
  switch (rng() % 6) {
    case 0:
      break;
    case 1:
      e.kind = static_cast<FwdKind>((static_cast<int>(e.kind) + 1 + rng() % 2) % 3);
      break;
    case 2:
      if (!e.nexthops.empty()) {
        e.nexthops[rng() % e.nexthops.size()] = static_cast<NodeId>(rng() % size);
      }
      break;
    case 3:
      if (e.nexthops.size() > 1) std::swap(e.nexthops.front(), e.nexthops.back());
      break;
    case 4:
      if (!e.nexthops.empty() && n + 1 < size) {
        std::vector<NodeId>& next = out.entries[n + 1].nexthops;
        next.insert(next.begin(), e.nexthops.back());
        e.nexthops.pop_back();
      }
      break;
    default:
      e.nexthops.push_back(static_cast<NodeId>(rng() % size));
      break;
  }
  return out;
}

TEST(WalkMemo, OnePassSignatureSplitsPairsLikeAllSourceBfs) {
  // Sources and interesting nodes both empty (loop freedom): the one-pass
  // signature must split a pair of FIB-shaped data planes exactly when the
  // per-source BFS over every node does, and split every pair the BFS
  // splits on arbitrary forwarding graphs.
  std::mt19937_64 rng(0x51a7);
  WalkMemo memo;
  const auto one_pass = [&](const DataPlane& dp) { return memo.signature(dp, {}, {}); };
  const auto bfs = [](const DataPlane& dp) { return reference_signature(dp, {}, {}); };
  std::size_t same = 0;
  std::size_t split = 0;
  for (int pair = 0; pair < 20000; ++pair) {
    const DataPlane raw = random_dataplane(rng);
    const DataPlane a = fib_shaped(raw);
    const DataPlane b = fib_shaped(edited(a, rng));
    const bool bfs_same = bfs(a) == bfs(b);
    EXPECT_EQ(one_pass(a) == one_pass(b), bfs_same) << "pair " << pair;
    ++(bfs_same ? same : split);
    const DataPlane raw_b = edited(raw, rng);
    if (bfs(raw) != bfs(raw_b)) {
      EXPECT_NE(one_pass(raw), one_pass(raw_b)) << "raw pair " << pair;
    }
  }
  EXPECT_GT(same, 1000u);
  EXPECT_GT(split, 1000u);

  // {1,2}+{3} against {1}+{2,3}: kForward is 2, so without the next-hop
  // count both entries would hash as the stream 2,1,2,2,3.
  DataPlane x;
  x.entries.resize(4);
  x.entries[0] = {FwdKind::kForward, {1, 2}, Protocol::kOspf, 0};
  x.entries[1] = {FwdKind::kForward, {3}, Protocol::kOspf, 0};
  x.entries[2] = {FwdKind::kLocal, {}, Protocol::kOspf, 0};
  x.entries[3] = {FwdKind::kLocal, {}, Protocol::kOspf, 0};
  DataPlane y = x;
  y.entries[0].nexthops = {1};
  y.entries[1].nexthops = {2, 3};
  EXPECT_NE(bfs(x), bfs(y));
  EXPECT_NE(one_pass(x), one_pass(y));
}

TEST(WalkMemo, SharedGenerationIsExactOnlyForLooped) {
  // A → {B, C}, B → A, C drops. Walking A first enters the cycle at A, so
  // B finishes with what A knew then (looped, not yet dropped); B's own
  // walk reaches C's drop through A. This is why only loop freedom shares
  // a generation across sources.
  DataPlane dp;
  dp.entries.resize(3);
  dp.entries[0] = {FwdKind::kForward, {1, 2}, Protocol::kStatic, 0};
  dp.entries[1] = {FwdKind::kForward, {0}, Protocol::kStatic, 0};
  dp.entries[2] = {FwdKind::kDrop, {}, Protocol::kStatic, 0};
  WalkMemo memo;
  memo.begin(dp);
  EXPECT_TRUE(memo.walk(0).dropped);
  const WalkStats shared_b = memo.walk(1);
  EXPECT_TRUE(shared_b.looped);
  EXPECT_FALSE(shared_b.dropped);
  const WalkStats own_b = memo.walk_from(dp, 1);
  EXPECT_TRUE(own_b.looped);
  EXPECT_TRUE(own_b.dropped);
  EXPECT_TRUE(same_walk(own_b, reference_walk(dp, 1, {})));
}

}  // namespace
}  // namespace plankton
