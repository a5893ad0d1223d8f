// BGP control-plane semantics: non-deterministic convergence (Griffin et
// al.'s gadgets, BGP wedgies) and iBGP-over-OSPF recursion — the paper's §5
// "hand-created topologies incorporating protocol characteristics such as
// non-deterministic protocol convergence, redistribution, recursive routing".
#include <gtest/gtest.h>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
#include "workload/as_topo.hpp"

namespace plankton {
namespace {

/// DISAGREE: origin 0; nodes 1 and 2 each prefer the route through the other
/// over the direct route. Two stable states exist; which one is reached
/// depends on message ordering. RPVP must enumerate both.
Network make_disagree() {
  Network net;
  const NodeId r0 = net.add_device("origin");
  const NodeId r1 = net.add_device("r1");
  const NodeId r2 = net.add_device("r2");
  net.topo.add_link(r0, r1);
  net.topo.add_link(r0, r2);
  net.topo.add_link(r1, r2);
  for (const NodeId n : {r0, r1, r2}) {
    net.device(n).bgp.emplace();
    net.device(n).bgp->asn = 100 + n;
  }
  auto session = [&net](NodeId a, NodeId b) {
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  };
  session(r0, r1);
  session(r0, r2);
  session(r1, r2);
  net.device(r0).bgp->originated.push_back(Prefix(IpAddr(10, 0, 0, 0), 24));
  // r1 prefers routes learned from r2 (local-pref 200) over direct (100);
  // symmetric for r2.
  RouteMapClause prefer;
  prefer.action.set_local_pref = 200;
  net.device(r1).bgp->session_with(r2)->import.clauses.push_back(prefer);
  net.device(r2).bgp->session_with(r1)->import.clauses.push_back(prefer);
  return net;
}

/// Counts converged states by running the explorer with outcome recording.
ExploreResult explore_all(const Network& net, const Policy& policy,
                          ExploreOptions opts = {}) {
  const PecSet pecs = compute_pecs(net);
  const auto routed = pecs.routed();
  EXPECT_EQ(routed.size(), 1u);
  const Pec& pec = pecs.pecs[routed[0]];
  opts.record_outcomes = true;
  opts.find_all_violations = true;
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  return ex.run();
}

TEST(BgpSemantics, DisagreeHasTwoConvergedStates) {
  const Network net = make_disagree();
  const LoopFreedomPolicy policy;
  const ExploreResult r = explore_all(net, policy);
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  // Exactly two distinct converged data planes: r1 via r2 or r2 via r1
  // (both choosing "through the other" simultaneously is not stable).
  EXPECT_EQ(r.outcomes.size(), 2u);
}

TEST(BgpSemantics, DisagreeNaiveModeAgrees) {
  const Network net = make_disagree();
  const LoopFreedomPolicy policy;
  const ExploreResult fast = explore_all(net, policy);
  const ExploreResult naive = explore_all(net, policy, ExploreOptions::naive());
  EXPECT_EQ(naive.verdict(), Verdict::kHolds);
  // Naive full-RPVP exploration (including withdraw transitions) reaches the
  // same converged set.
  EXPECT_EQ(naive.outcomes.size(), fast.outcomes.size());
  EXPECT_GE(naive.stats.states_explored, fast.stats.states_explored);
}

/// BGP wedgie (RFC 4264 flavour): customer dual-homed to a backup provider
/// (which depresses the direct route via a backup community, local-pref 50)
/// and a primary provider (which prefers customer routes re-advertised by the
/// backup, local-pref 200, over its own direct route, 100). Loop rejection
/// makes both assignments stable:
///   intended: primary uses the direct route, backup routes via primary;
///   wedged:   backup sticks to the depressed direct route and the primary
///             routes through the backup.
/// Which one is reached depends on advertisement ordering.
Network make_wedgie(NodeId& primary, NodeId& backup, NodeId& customer) {
  Network net;
  const NodeId cust = net.add_device("customer");  // origin
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
  net.device(cust).bgp->originated.push_back(Prefix(IpAddr(10, 7, 0, 0), 16));
  RouteMapClause depress;  // backup community on the cust->bak link
  depress.action.set_local_pref = 50;
  net.device(bak).bgp->session_with(cust)->import.clauses.push_back(depress);
  RouteMapClause lift;  // primary prefers the backup's re-advertisement
  lift.action.set_local_pref = 200;
  net.device(pri).bgp->session_with(bak)->import.clauses.push_back(lift);
  primary = pri;
  backup = bak;
  customer = cust;
  return net;
}

TEST(BgpSemantics, WedgieHasTwoConvergedStates) {
  NodeId pri, bak, cust;
  const Network net = make_wedgie(pri, bak, cust);
  const LoopFreedomPolicy policy;
  const ExploreResult r = explore_all(net, policy);
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  EXPECT_EQ(r.outcomes.size(), 2u) << "wedgie must have exactly 2 stable states";
}

TEST(BgpSemantics, WedgieViolationFoundWithTrail) {
  NodeId pri, bak, cust;
  const Network net = make_wedgie(pri, bak, cust);
  // Intended behaviour: the primary provider reaches the customer directly
  // (one hop). In the wedged state it detours through the backup.
  const BoundedPathLengthPolicy policy({pri}, 1);
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  Explorer ex(net, pec, make_tasks(net, pec), policy, {});
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.verdict(), Verdict::kViolated)
      << "the wedged state must be found";
  ASSERT_FALSE(r.violations.empty());
  EXPECT_FALSE(r.violations[0].trail.events.empty());
}

TEST(BgpSemantics, IbgpOverOspfDelivers) {
  AsTopo topo = make_as_topo("test-as", 24);
  const IbgpOverlay overlay = add_ibgp_mesh(topo);
  VerifyOptions opts;
  const ReachabilityPolicy policy(
      {overlay.speakers.begin(), overlay.speakers.end()});
  Verifier verifier(topo.net, opts);
  const VerifyResult r =
      verifier.verify_address(overlay.external.addr(), policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.first_violation(topo.net.topo);
  EXPECT_GT(r.pecs_support, 0u)
      << "loopback PECs must be scheduled before the iBGP PEC";
}

TEST(BgpSemantics, IbgpDependencyGraphIsAcyclicWithLoopbacksFirst) {
  AsTopo topo = make_as_topo("test-as2", 20);
  add_ibgp_mesh(topo);
  const PecSet pecs = compute_pecs(topo.net);
  const PecDependencies deps = compute_dependencies(topo.net, pecs);
  EXPECT_TRUE(deps.has_cross_pec_deps());
  // Every SCC must be a single PEC (Fig. 5's expectation).
  for (const auto& scc : deps.sccs) EXPECT_EQ(scc.size(), 1u);
}

}  // namespace
}  // namespace plankton
