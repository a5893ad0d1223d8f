// Explorer options and edge cases: bitstate verdicts, state/time budgets,
// naive-mode withdrawals, per-peer OSPF updates, context separation, the
// §4.1.1 conflict prune under influence pruning, and the failure-relevance
// rule.
#include <gtest/gtest.h>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
#include "support/random_net.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

TEST(ExplorerOptions, BitstateVerdictAgreesOnWorkloads) {
  for (const bool broken : {false, true}) {
    FatTreeOptions o;
    o.k = 4;
    o.statics = broken ? FatTreeOptions::CoreStatics::kBroken
                       : FatTreeOptions::CoreStatics::kMatching;
    const FatTree ft = make_fat_tree(o);
    const LoopFreedomPolicy policy;
    bool violated[2];
    for (const bool bitstate : {false, true}) {
      VerifyOptions vo;
      vo.explore.visited =
          bitstate ? VisitedKind::kBitstate : VisitedKind::kExact;
      vo.explore.bloom_bits = 1 << 22;
      Verifier v(ft.net, vo);
      // A lossy Bloom store never yields a hold: compare violations only.
      violated[bitstate ? 1 : 0] =
          v.verify(policy).verdict == Verdict::kViolated;
    }
    EXPECT_EQ(violated[0], violated[1]) << "broken=" << broken;
  }
}

TEST(ExplorerOptions, StateLimitReportsIncomplete) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const PecSet pecs = compute_pecs(ft.net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  ExploreOptions opts = ExploreOptions::naive();
  opts.merge_updates = false;
  opts.budget.max_states = 500;
  const LoopFreedomPolicy policy;
  Explorer ex(ft.net, pec, make_tasks(ft.net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.budget_tripped, BudgetKind::kStates);
}

TEST(ExplorerOptions, TimeLimitReportsTimeout) {
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  const PecSet pecs = compute_pecs(ft.net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  ExploreOptions opts = ExploreOptions::naive();
  opts.merge_updates = false;
  opts.budget.deadline = std::chrono::milliseconds(20);
  const LoopFreedomPolicy policy;
  Explorer ex(ft.net, pec, make_tasks(ft.net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.budget_tripped, BudgetKind::kDeadline);
}

TEST(ExplorerOptions, PerPeerUpdatesMatchMergedVerdicts) {
  // With ECMP merging disabled (per-peer RPVP updates), policy verdicts for
  // reachability must match the merged mode on rings (where ECMP is limited
  // to the antipodal node).
  for (const int n : {4, 5, 6}) {
    const Network net = make_ring(n);
    const ReachabilityPolicy policy({static_cast<NodeId>(n / 2)});
    Verdict verdicts[2];
    for (const bool merge : {true, false}) {
      VerifyOptions vo;
      vo.explore = merge ? ExploreOptions{} : ExploreOptions::naive();
      vo.explore.merge_updates = merge;
      Verifier v(net, vo);
      verdicts[merge ? 1 : 0] = v.verify(policy).verdict;
    }
    EXPECT_EQ(verdicts[0], verdicts[1]) << "ring " << n;
  }
}

TEST(ExplorerOptions, NaiveModeHandlesWithdrawals) {
  // Naive RPVP includes invalid-node withdrawal transitions; on a ring with
  // one failure the exploration must still terminate and find delivery.
  const Network net = make_ring(5);
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  ExploreOptions opts = ExploreOptions::naive();
  opts.merge_updates = false;
  opts.max_failures = 1;
  opts.record_outcomes = true;
  opts.find_all_violations = true;
  const ReachabilityPolicy policy({2});
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  EXPECT_GT(r.outcomes.size(), 1u) << "per-failure-set outcomes";
}

TEST(ExplorerOptions, FindAllViolationsCollectsSeveral) {
  const Network net = make_ring(8);
  VerifyOptions vo;
  vo.explore.max_failures = 2;
  vo.explore.find_all_violations = true;
  vo.explore.suppress_equivalent = false;
  Verifier v(net, vo);
  const ReachabilityPolicy policy({4});
  const VerifyResult r = v.verify(policy);
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  std::size_t total = 0;
  for (const auto& rep : r.reports) total += rep.result.violations.size();
  EXPECT_GT(total, 1u);
}

TEST(ExplorerOptions, SuppressionReducesPolicyChecks) {
  // Symmetric ring failures produce equivalent converged states from the
  // policy's perspective; suppression must skip some checks.
  const Network net = make_ring(10);
  VerifyOptions with;
  with.explore.max_failures = 1;
  with.explore.lec_failures = false;  // keep all failure sets
  VerifyOptions without = with;
  without.explore.suppress_equivalent = false;
  const ReachabilityPolicy policy({5});
  const VerifyResult a = Verifier(net, with).verify(policy);
  const VerifyResult b = Verifier(net, without).verify(policy);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_GT(a.total.suppressed_checks, 0u);
  EXPECT_LT(a.total.policy_checks, b.total.policy_checks);
}

TEST(ExplorerOptions, EmptyTaskListStillChecksStatics) {
  // A PEC carrying only static routes has no protocol phases; the FIB and
  // policy must still be evaluated.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  net.topo.add_link(a, b);
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.0.0.0/8");
  sr.via_neighbor = b;
  net.device(a).statics.push_back(sr);
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.find(IpAddr(10, 1, 1, 1))];
  auto tasks = make_tasks(net, pec);
  EXPECT_TRUE(tasks.empty());
  const BlackholeFreedomPolicy policy({a});
  Explorer ex(net, pec, std::move(tasks), policy, {});
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.verdict(), Verdict::kViolated)
      << "traffic forwarded to b is dropped there";
}

TEST(ExplorerOptions, ConflictPruneFiresUnderInfluencePruning) {
  // §4.1.1 cuts every execution in which a committed node wants to change,
  // also where §4.2 influence pruning runs: influence only narrows the
  // enabled set. Committed nodes are never influencers, so an exemption for
  // non-influencers switched the prune off wherever influence pruning ran.
  // Each input runs under default options and holds.
  for (const std::uint64_t seed : {2191u, 5372u}) {
    // bgp-rand/6 with `reach r5` (2 prunes, 7 states) and `blackhole r4`
    // (1 prune, 4 states).
    const testsupport::RandomInstance inst = testsupport::make_random_instance(seed);
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", " + inst.policy->spec(inst.net) + ")");
    VerifyOptions vo;
    vo.explore.max_failures = inst.max_failures;
    const VerifyResult r = Verifier(inst.net, vo).verify(*inst.policy);
    EXPECT_EQ(r.verdict, Verdict::kHolds);
    EXPECT_GT(r.total.pruned_inconsistent, 0u);
  }
  // The Fig. 9 worst case (bench/e2e's verify_spvp input, first target):
  // 179,342 explored states without a prune, 101,630 with it.
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(o);
  std::vector<NodeId> aggs;
  for (NodeId n = 0; n < ft.net.topo.node_count(); ++n) {
    if (ft.net.topo.name(n).starts_with("agg-")) aggs.push_back(n);
  }
  const WaypointPolicy policy({*ft.net.find_device("edge-3-1")}, aggs);
  VerifyOptions vo;
  vo.explore.det_nodes_bgp = false;
  vo.explore.suppress_equivalent = false;
  const VerifyResult r =
      Verifier(ft.net, vo).verify_address(ft.edge_prefixes[0].addr(), policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_GT(r.total.pruned_inconsistent, 0u);
  EXPECT_LT(r.total.states_explored, 179342u);
}

// -- Failure relevance (docs/architecture.md) --------------------------------

class AcceptAllPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "accept-all"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// Per link: 1 when it lies on the shortest-path DAG of one of `pec`'s OSPF
/// prefixes with no link failed. Computed from SPF distances alone, with no
/// explorer code, for networks whose every device runs OSPF.
std::vector<std::uint8_t> spf_dag(const Network& net, const Pec& pec) {
  std::vector<std::uint8_t> on(net.topo.link_count(), 0);
  for (const PecPrefix& pp : pec.prefixes) {
    if (pp.ospf_origins.empty()) continue;
    const std::vector<std::uint32_t> dist =
        shortest_path_costs(net.topo, pp.ospf_origins, net.topo.no_failures());
    for (LinkId l = 0; l < on.size(); ++l) {
      const Link& k = net.topo.link(l);
      if (dist[k.a] == kInfiniteCost || dist[k.b] == kInfiniteCost) continue;
      if (std::uint64_t{dist[k.a]} + k.cost_ba == dist[k.b] ||
          std::uint64_t{dist[k.b]} + k.cost_ab == dist[k.a]) {
        on[l] = 1;
      }
    }
  }
  return on;
}

bool same_outcomes(const std::vector<const PecOutcome*>& a,
                   const std::vector<const PecOutcome*>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i]->igp_cost != b[i]->igp_cost) return false;
    const auto& x = a[i]->dp.entries;
    const auto& y = b[i]->dp.entries;
    if (x.size() != y.size()) return false;
    for (std::size_t n = 0; n < x.size(); ++n) {
      if (x[n].kind != y[n].kind || x[n].nexthops != y[n].nexthops ||
          x[n].source != y[n].source || x[n].prefix_idx != y[n].prefix_idx) {
        return false;
      }
    }
  }
  return true;
}

TEST(FailureRelevance, OffDagFailureKeepsTheDataPlane) {
  // The lemma, checked from outside: on the random_net OSPF families (no
  // statics), failing a link off every SPF DAG leaves each converged data
  // plane and IGP cost vector exactly as with no failure. record_outcomes
  // turns the rule off, and lec_failures = false runs every single-link
  // set, so each outcome below comes from a real run.
  std::size_t off_dag = 0;
  std::size_t on_dag_moved = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const testsupport::RandomInstance inst = testsupport::make_random_instance(seed);
    if (inst.kind.rfind("ring/", 0) != 0 && inst.kind != "fat-tree-ospf/2" &&
        inst.kind.rfind("ospf-rand/", 0) != 0) {
      continue;
    }
    const PecSet pecs = compute_pecs(inst.net);
    for (const PecId p : pecs.routed()) {
      const Pec& pec = pecs.pecs[p];
      SCOPED_TRACE("seed " + std::to_string(seed) + " (" + inst.kind + "), pec " +
                   pec.str());
      ExploreOptions opts;
      opts.max_failures = 1;
      opts.record_outcomes = true;
      opts.lec_failures = false;
      const AcceptAllPolicy policy;
      Explorer ex(inst.net, pec, make_tasks(inst.net, pec), policy, opts);
      const ExploreResult r = ex.run();
      ASSERT_EQ(r.verdict(), Verdict::kHolds);
      const auto under = [&](const FailureSet& f) {
        std::vector<const PecOutcome*> out;
        for (const PecOutcome& o : r.outcomes) {
          if (o.failures == f) out.push_back(&o);
        }
        return out;
      };
      const FailureSet none = inst.net.topo.no_failures();
      const std::vector<const PecOutcome*> base = under(none);
      ASSERT_EQ(base.size(), 1u) << "an SPF-ordered run converges once";
      const std::vector<std::uint8_t> dag = spf_dag(inst.net, pec);
      for (LinkId l = 0; l < dag.size(); ++l) {
        FailureSet f = none;
        f.fail(l);
        const bool same = same_outcomes(under(f), base);
        if (dag[l] == 0) {
          EXPECT_TRUE(same) << "failing off-DAG link " << l << " moved an outcome";
          ++off_dag;
        } else if (!same) {
          ++on_dag_moved;
        }
      }
    }
  }
  // Both sides must occur, or the oracle checks nothing.
  std::printf("lemma oracle: %zu off-DAG failures kept the data plane, %zu "
              "on-DAG failures moved it\n", off_dag, on_dag_moved);
  EXPECT_GT(off_dag, 100u);
  EXPECT_GT(on_dag_moved, 100u);
}

TEST(FailureRelevance, PinsRunsOnAs1755Loopback) {
  // Loop freedom under at most one failure on one AS1755 loopback PEC (the
  // verify_failures input; perf_smoke's as_loop_failures/AS1755 row pins
  // all 87). With the rule off (record_outcomes) the PEC runs 149 failure
  // sets and makes the same 91 policy checks: the runs the rule skips would
  // all have been suppressed (§3.5). One PEC keeps this under a second in
  // a Debug ASan build.
  const AsTopo topo = make_as_topo("AS1755");
  const PecSet pecs = compute_pecs(topo.net);
  const Pec& pec = pecs.pecs[pecs.find(topo.loopbacks[86].addr())];
  const LoopFreedomPolicy policy;
  ExploreOptions opts;
  opts.max_failures = 1;
  Explorer ex(topo.net, pec, make_tasks(topo.net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  EXPECT_EQ(r.stats.failure_sets, 91u);
  EXPECT_EQ(r.stats.policy_checks, 91u);
}

TEST(FailureSetReuse, PinsReuseOnAs1755Loopback) {
  // The PEC above (docs/architecture.md "Failure-set runs reuse the
  // no-failure run"). Its no-failure run computes all 86 routes; the 90
  // failure-set runs commit 7,726 more (a failure can cut a node off) and
  // take 7,262 of them, 94%, from it: every route whose node kept its
  // parents and whose parents kept their routes. The first converged state
  // builds all 87 FIB entries, and the 90 others 461 in all, about 5 each:
  // the entries whose routes differ from the previous state's.
  const AsTopo topo = make_as_topo("AS1755");
  const PecSet pecs = compute_pecs(topo.net);
  const Pec& pec = pecs.pecs[pecs.find(topo.loopbacks[86].addr())];
  const LoopFreedomPolicy policy;
  ExploreOptions opts;
  opts.max_failures = 1;
  Explorer ex(topo.net, pec, make_tasks(topo.net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  EXPECT_EQ(r.stats.det_steps, 86u + 7726u);
  EXPECT_EQ(r.stats.routes_reused, 7262u);
  EXPECT_EQ(r.stats.fib_entries_rebuilt, 87u + 461u);
}

}  // namespace
}  // namespace plankton
