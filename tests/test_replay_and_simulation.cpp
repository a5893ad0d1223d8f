// Trail replay (counterexample validation) and Batfish-style simulation mode
// (Fig. 1: single-execution tools miss multi-stable-state violations).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "rpvp/replay.hpp"
#include "workload/external.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

/// The 3-node wedgie from test_bgp_semantics (two stable states).
Network make_wedgie() {
  Network net;
  const NodeId cust = net.add_device("customer");
  const NodeId bak = net.add_device("backup");
  const NodeId pri = net.add_device("primary");
  net.topo.add_link(cust, bak);
  net.topo.add_link(cust, pri);
  net.topo.add_link(bak, pri);
  for (NodeId n = 0; n < 3; ++n) {
    net.device(n).bgp.emplace();
    net.device(n).bgp->asn = 65000 + n;
  }
  auto session = [&net](NodeId a, NodeId b) {
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  };
  session(cust, bak);
  session(cust, pri);
  session(bak, pri);
  net.device(cust).bgp->originated.push_back(*Prefix::parse("10.7.0.0/16"));
  RouteMapClause depress;
  depress.action.set_local_pref = 50;
  net.device(bak).bgp->session_with(cust)->import.clauses.push_back(depress);
  RouteMapClause lift;
  lift.action.set_local_pref = 200;
  net.device(pri).bgp->session_with(bak)->import.clauses.push_back(lift);
  return net;
}

TEST(Replay, ReproducesWedgieViolation) {
  const Network net = make_wedgie();
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  const BoundedPathLengthPolicy policy({2 /* primary */}, 1);
  Explorer ex(net, pec, make_tasks(net, pec), policy, {});
  const ExploreResult r = ex.run();
  ASSERT_EQ(r.verdict(), Verdict::kViolated);
  ASSERT_FALSE(r.violations.empty());

  const ReplayResult replay = replay_trail(net, pec, r.violations[0].trail);
  ASSERT_TRUE(replay.ok) << replay.error;
  // The replayed data plane exhibits the violation: primary's path to the
  // customer is 2 hops (via backup), not 1.
  const WalkStats w = walk_from(replay.dp, 2);
  EXPECT_TRUE(w.delivered_any);
  EXPECT_EQ(w.max_hops, 2u);
}

TEST(Replay, ReproducesFailureInducedViolation) {
  const Network net = make_ring(6);
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  const ReachabilityPolicy policy({3});
  ExploreOptions opts;
  opts.max_failures = 2;
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  const ExploreResult r = ex.run();
  ASSERT_EQ(r.verdict(), Verdict::kViolated);
  ASSERT_FALSE(r.violations.empty());

  const ReplayResult replay = replay_trail(net, pec, r.violations[0].trail);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.failures.count(), r.violations[0].failures.count());
  const WalkStats w = walk_from(replay.dp, 3);
  EXPECT_FALSE(w.delivered_all) << "replay must reproduce the unreachability";
}

TEST(Replay, RejectsCorruptedTrail) {
  const Network net = make_wedgie();
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  Trail bogus;
  TrailEvent ev;
  ev.kind = TrailEvent::Kind::kSelect;
  ev.phase = 0;
  ev.node = 1;
  ev.peer = 2;
  bogus.events.push_back(ev);  // select before any kBeginPrefix
  const ReplayResult replay = replay_trail(net, pec, bogus);
  EXPECT_FALSE(replay.ok);
  EXPECT_FALSE(replay.error.empty());
}

TEST(Simulation, MissesWedgieThatModelCheckingFinds) {
  // Fig. 1's point: a single-execution (Batfish-style) run can land in the
  // intended state and miss the wedged one.
  const Network net = make_wedgie();
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  const BoundedPathLengthPolicy policy({2}, 1);

  ExploreOptions full;
  Explorer model_checker(net, pec, make_tasks(net, pec), policy, full);
  EXPECT_EQ(model_checker.run().verdict(), Verdict::kViolated)
      << "model checking finds the wedgie";

  // Simulation explores exactly one execution; across both det-node pick
  // orders at least one lands in the intended state. We assert the weaker,
  // deterministic property: simulation checks exactly one converged state.
  ExploreOptions sim;
  sim.engine_kind = SearchEngineKind::kSingleExecution;
  Explorer simulator(net, pec, make_tasks(net, pec), policy, sim);
  const ExploreResult r = simulator.run();
  EXPECT_EQ(r.stats.converged_states, 1u);
  EXPECT_EQ(r.stats.policy_checks + r.stats.suppressed_checks, 1u);
  // Whichever state the one execution lands in, it is not a proof: never
  // the hold that would mask the wedgie.
  EXPECT_NE(r.verdict(), Verdict::kHolds);
  EXPECT_FALSE(r.exhaustive);
}

TEST(Simulation, AgreesOnDeterministicNetworks) {
  // On OSPF (deterministic convergence) simulation finds exactly the
  // violations full exploration finds — but only the full exploration is a
  // proof, so a violation-free simulation is inconclusive.
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions full;
  full.explore.find_all_violations = true;
  VerifyOptions sim = full;
  sim.explore.engine_kind = SearchEngineKind::kSingleExecution;
  const VerifyResult rf = Verifier(ft.net, full).verify(policy);
  const VerifyResult rs = Verifier(ft.net, sim).verify(policy);
  const auto violation_set = [](const VerifyResult& r) {
    std::multiset<std::string> out;
    for (const auto& rep : r.reports) {
      for (const auto& v : rep.result.violations) {
        out.insert(rep.pec_str + "|" + v.message);
      }
    }
    return out;
  };
  EXPECT_EQ(violation_set(rs), violation_set(rf));
  EXPECT_EQ(rf.verdict, Verdict::kHolds);
  EXPECT_EQ(rs.verdict, Verdict::kInconclusive);
}

TEST(ExternalPeer, StubOriginatesAndSteers) {
  // Two border routers, each with an external peer for the same prefix; the
  // customer peer gets local-pref 200 (preferred) vs the provider's 80.
  Network net;
  const NodeId b1 = net.add_device("b1");
  const NodeId b2 = net.add_device("b2");
  net.topo.add_link(b1, b2);
  for (const NodeId b : {b1, b2}) {
    net.device(b).bgp.emplace();
    net.device(b).bgp->asn = 65010 + b;
  }
  BgpSession s1;
  s1.peer = b2;
  net.device(b1).bgp->sessions.push_back(s1);
  BgpSession s2;
  s2.peer = b1;
  net.device(b2).bgp->sessions.push_back(s2);

  const Prefix ext = *Prefix::parse("203.0.113.0/24");
  ExternalPeerOptions customer;
  customer.asn = 64901;
  customer.import_local_pref = 200;
  const NodeId cust = add_external_peer(net, b1, ext, customer);
  ExternalPeerOptions provider;
  provider.asn = 64902;
  provider.import_local_pref = 80;
  add_external_peer(net, b2, ext, provider);
  ASSERT_TRUE(net.validate().empty());

  // All internal traffic must exit via b1's customer peer.
  Verifier v(net, {});
  const WaypointPolicy policy({b2}, {cust});
  EXPECT_EQ(v.verify_address(ext.addr(), policy).verdict, Verdict::kHolds);
}

TEST(ExternalPeer, RequiresBgpAttachment) {
  Network net;
  net.add_device("plain");
  EXPECT_THROW(add_external_peer(net, 0, *Prefix::parse("10.0.0.0/8"), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace plankton
