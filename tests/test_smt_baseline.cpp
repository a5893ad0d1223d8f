// Mini-Minesweeper baseline correctness: encoder results must agree with the
// reference Dijkstra computation and with Plankton's verdicts.
#include <gtest/gtest.h>

#include <random>

#include "baselines/smt/encoder.hpp"
#include "core/verifier.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

TEST(SmtBaseline, ShortestPathsMatchDijkstra) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  smt::MsVerifier ms(ft.net, {});
  std::vector<std::uint32_t> costs;
  const smt::MsResult r = ms.solve_shortest_paths(ft.edges[0], costs);
  ASSERT_TRUE(r.holds);
  ASSERT_FALSE(r.timed_out);
  const std::vector<NodeId> origin{ft.edges[0]};
  const auto expected =
      shortest_path_costs(ft.net.topo, origin, ft.net.topo.no_failures());
  ASSERT_EQ(costs.size(), expected.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(costs[i], expected[i]) << "node " << i;
  }
}

TEST(SmtBaseline, LoopCheckPassesOnCleanFatTree) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kMatching;
  const FatTree ft = make_fat_tree(o);
  smt::MsVerifier ms(ft.net, {});
  EXPECT_TRUE(ms.check_loop().holds);
}

TEST(SmtBaseline, LoopCheckFailsOnBrokenStatics) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  smt::MsVerifier ms(ft.net, {});
  EXPECT_FALSE(ms.check_loop().holds);
}

TEST(SmtBaseline, RingReachabilityUnderFailures) {
  const Network net = make_ring(6);
  smt::MsOptions one;
  one.max_failures = 1;
  EXPECT_TRUE(smt::MsVerifier(net, one).check_reachability(3).holds);
  smt::MsOptions two;
  two.max_failures = 2;
  EXPECT_FALSE(smt::MsVerifier(net, two).check_reachability(3).holds);
}

TEST(SmtBaseline, BoundedLengthOnFatTree) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  smt::MsVerifier ms(ft.net, {});
  // Fat-tree diameter: edge->agg->core->agg->edge = 4 hops.
  EXPECT_TRUE(ms.check_bounded_length(ft.edges[2], 4).holds);
  EXPECT_FALSE(ms.check_bounded_length(ft.edges[2], 3).holds);
}

/// Random connected OSPF networks: baseline and Plankton must agree on
/// reachability under 0 and 1 failures (the key cross-tool property test —
/// the paper used Minesweeper agreement as "an additional correctness
/// check for Plankton").
class CrossTool : public ::testing::TestWithParam<int> {};

TEST_P(CrossTool, ReachabilityVerdictsAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u);
  for (int iter = 0; iter < 6; ++iter) {
    const int n = 5 + static_cast<int>(rng() % 6);
    Network net;
    for (int i = 0; i < n; ++i) {
      const NodeId id = net.add_device("r" + std::to_string(i));
      net.device(id).ospf.enabled = true;
      net.device(id).ospf.advertise_loopback = false;
    }
    for (int i = 1; i < n; ++i) {  // random tree + extra chords
      net.topo.add_link(static_cast<NodeId>(i),
                        static_cast<NodeId>(rng() % static_cast<unsigned>(i)),
                        1 + rng() % 10);
    }
    for (int extra = 0; extra < n / 2; ++extra) {
      const NodeId a = rng() % n;
      const NodeId b = rng() % n;
      if (a != b && net.topo.find_link(a, b) == kNoLink) {
        net.topo.add_link(a, b, 1 + rng() % 10);
      }
    }
    net.device(0).ospf.originated.push_back(Prefix(IpAddr(10, 0, 0, 0), 24));
    const NodeId src = 1 + rng() % (n - 1);

    for (const int k : {0, 1}) {
      smt::MsOptions mo;
      mo.max_failures = k;
      const bool ms_holds = smt::MsVerifier(net, mo).check_reachability(src).holds;

      VerifyOptions vo;
      vo.explore.max_failures = k;
      Verifier verifier(net, vo);
      const ReachabilityPolicy policy({src});
      const bool pk_holds =
          verifier.verify(policy).verdict == Verdict::kHolds;
      EXPECT_EQ(ms_holds, pk_holds)
          << "seed " << GetParam() << " iter " << iter << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossTool, ::testing::Range(1, 7));

}  // namespace
}  // namespace plankton
