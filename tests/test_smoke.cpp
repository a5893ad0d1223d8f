// End-to-end smoke tests: the full pipeline on small canonical networks.
#include <gtest/gtest.h>

#include "core/verifier.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

TEST(Smoke, RingReachabilityNoFailures) {
  const Network net = make_ring(4);
  Verifier verifier(net, {});
  std::vector<NodeId> sources;
  for (NodeId n = 0; n < net.topo.node_count(); ++n) sources.push_back(n);
  const ReachabilityPolicy policy(sources);
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.first_violation(net.topo);
  EXPECT_EQ(r.pecs_verified, 1u);
}

TEST(Smoke, RingReachabilitySurvivesOneFailure) {
  const Network net = make_ring(6);
  VerifyOptions opts;
  opts.explore.max_failures = 1;
  Verifier verifier(net, opts);
  const ReachabilityPolicy policy({3});
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.first_violation(net.topo);
  EXPECT_GE(r.total.failure_sets, 2u);  // no-failure case + at least one failure
}

TEST(Smoke, RingReachabilityFailsWithTwoFailures) {
  const Network net = make_ring(6);
  VerifyOptions opts;
  opts.explore.max_failures = 2;
  Verifier verifier(net, opts);
  const ReachabilityPolicy policy({3});
  const VerifyResult r = verifier.verify(policy);
  // two failures can cut node 3 from the origin
  EXPECT_EQ(r.verdict, Verdict::kViolated);
}

TEST(Smoke, FatTreeOspfLoopFree) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  Verifier verifier(ft.net, {});
  const LoopFreedomPolicy policy;
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.first_violation(ft.net.topo);
  EXPECT_EQ(r.pecs_verified, ft.edges.size());
}

TEST(Smoke, FatTreeMatchingStaticsStillLoopFree) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kMatching;
  const FatTree ft = make_fat_tree(o);
  Verifier verifier(ft.net, {});
  const LoopFreedomPolicy policy;
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.first_violation(ft.net.topo);
}

TEST(Smoke, FatTreeBrokenStaticsCreateLoop) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  Verifier verifier(ft.net, {});
  const LoopFreedomPolicy policy;
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  ASSERT_FALSE(r.reports.empty());
}

TEST(Smoke, FatTreeReachabilityAllEdges) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  Verifier verifier(ft.net, {});
  const ReachabilityPolicy policy({ft.edges.begin(), ft.edges.end()});
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.first_violation(ft.net.topo);
}

TEST(Smoke, MultiCoreMatchesSingleCore) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  VerifyOptions one;
  one.cores = 1;
  VerifyOptions four;
  four.cores = 4;
  const LoopFreedomPolicy policy;
  const VerifyResult r1 = Verifier(ft.net, one).verify(policy);
  const VerifyResult r4 = Verifier(ft.net, four).verify(policy);
  EXPECT_EQ(r1.verdict, r4.verdict);
}

}  // namespace
}  // namespace plankton
