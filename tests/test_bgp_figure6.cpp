// The paper's Figure 6: step-by-step deterministic-node detection on a
// 6-node BGP network, plus unit tests of the BGP adapter's heuristics.
#include <gtest/gtest.h>

#include "pec/pec.hpp"
#include "protocols/bgp.hpp"
#include "rpvp/explorer.hpp"
#include "support/figure6.hpp"

namespace plankton {
namespace {

using testsupport::Figure6;

TEST(Figure6, InitialDeterministicNodesAreOriginNeighbors) {
  Figure6 fx;
  BgpProcess proc(fx.net, *Prefix::parse("10.0.0.0/16"), {fx.r1});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  std::vector<RouteId> rib(fx.net.topo.node_count(), kNoRoute);
  rib[fx.r1] = proc.origin_route(fx.r1, ctx);
  // Initially R2 and R3 are enabled (direct neighbors of the origin); both
  // are deterministic: tied local-pref, best possible AS path (step 1/3 of
  // the figure's narration).
  bool tie_ok = true;
  const std::vector<NodeId> enabled{fx.r2, fx.r3};
  const NodeId pick =
      proc.deterministic_node(enabled, StateView(rib), ctx, tie_ok);
  EXPECT_TRUE(pick == fx.r2 || pick == fx.r3);
  EXPECT_FALSE(tie_ok);
}

TEST(Figure6, R5DeterministicAfterR2Commits) {
  Figure6 fx;
  const Prefix p = *Prefix::parse("10.0.0.0/16");
  BgpProcess proc(fx.net, p, {fx.r1});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  std::vector<RouteId> rib(fx.net.topo.node_count(), kNoRoute);
  rib[fx.r1] = proc.origin_route(fx.r1, ctx);
  rib[fx.r2] = proc.advertised(fx.r1, fx.r2, rib[fx.r1], ctx);
  ASSERT_NE(rib[fx.r2], kNoRoute);
  // Step 2: R5's update from R2 carries the highest local-pref anywhere in
  // the network — a clear winner.
  bool tie_ok = true;
  const std::vector<NodeId> enabled{fx.r4, fx.r5};
  const NodeId pick =
      proc.deterministic_node(enabled, StateView(rib), ctx, tie_ok);
  EXPECT_EQ(pick, fx.r5);
  EXPECT_FALSE(tie_ok);
}

TEST(Figure6, R4TieDetectedWhenAllWinnersEnabled) {
  Figure6 fx;
  const Prefix p = *Prefix::parse("10.0.0.0/16");
  BgpProcess proc(fx.net, p, {fx.r1});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  std::vector<RouteId> rib(fx.net.topo.node_count(), kNoRoute);
  rib[fx.r1] = proc.origin_route(fx.r1, ctx);
  rib[fx.r2] = proc.advertised(fx.r1, fx.r2, rib[fx.r1], ctx);
  rib[fx.r3] = proc.advertised(fx.r1, fx.r3, rib[fx.r1], ctx);
  rib[fx.r5] = proc.advertised(fx.r2, fx.r5, rib[fx.r2], ctx);
  // Step 4: R4's two updates (via R2, via R3) tie on every step, and both
  // potential winners are enabled now — tie_ok nomination ("use SPIN to
  // decide between neighbors R2, R3").
  bool tie_ok = false;
  const std::vector<NodeId> enabled{fx.r4};
  const NodeId pick =
      proc.deterministic_node(enabled, StateView(rib), ctx, tie_ok);
  EXPECT_EQ(pick, fx.r4);
  EXPECT_TRUE(tie_ok);
}

TEST(Figure6, ExplorationCountsMatchNarrative) {
  // End to end: exactly the two tie points (R4 and R6) branch; everything
  // else executes deterministically.
  Figure6 fx;
  const PecSet pecs = compute_pecs(fx.net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  class Count final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "count"; }
    [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
      return true;
    }
    [[nodiscard]] bool supports_equivalence() const override { return false; }
  } policy;
  ExploreOptions opts;
  opts.find_all_violations = true;
  opts.record_outcomes = true;
  Explorer ex(fx.net, pec, make_tasks(fx.net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  // R4 picks between R2/R3 and R6 between R4/R5: up to 4 distinct converged
  // data planes, all loop-free.
  EXPECT_GE(r.outcomes.size(), 2u);
  EXPECT_LE(r.outcomes.size(), 4u);
  EXPECT_GT(r.stats.det_steps, 0u);
  EXPECT_GT(r.stats.nondet_branches, 0u);
}

TEST(BgpProcessUnit, SessionLivenessUnderLinkFailure) {
  Figure6 fx;
  BgpProcess proc(fx.net, *Prefix::parse("10.0.0.0/16"), {fx.r1});
  ModelContext ctx;
  ctx.net = &fx.net;
  FailureSet failures(fx.net.topo.link_count());
  failures.fail(fx.net.topo.find_link(fx.r1, fx.r2));
  proc.prepare(failures, ctx);
  const auto peers = proc.peers(fx.r2);
  EXPECT_EQ(std::find(peers.begin(), peers.end(), fx.r1), peers.end())
      << "failed link tears the eBGP session down";
}

TEST(BgpProcessUnit, CanTransmitOnEbgpAlways) {
  Figure6 fx;
  BgpProcess proc(fx.net, *Prefix::parse("10.0.0.0/16"), {fx.r1});
  ModelContext ctx;
  ctx.net = &fx.net;
  proc.prepare(fx.net.topo.no_failures(), ctx);
  EXPECT_TRUE(proc.can_transmit(fx.r4, fx.r6));
  EXPECT_FALSE(proc.can_transmit(fx.r1, fx.r4)) << "no session between R1/R4";
}

}  // namespace
}  // namespace plankton
