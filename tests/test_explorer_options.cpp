// Explorer options and edge cases: bitstate verdicts, state/time budgets,
// naive-mode withdrawals, per-peer OSPF updates, context separation.
#include <gtest/gtest.h>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
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

}  // namespace
}  // namespace plankton
