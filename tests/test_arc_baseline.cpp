// ARC baseline: Dinic vs brute-force edge-subset enumeration (property test)
// and ARC-vs-Plankton verdict agreement.
#include <gtest/gtest.h>

#include <random>

#include "baselines/arc/arc.hpp"
#include "core/verifier.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

/// Reference: is src connected to dst after removing `removed` links?
bool connected_without(const Topology& topo, NodeId src, NodeId dst,
                       std::uint32_t removed_mask) {
  std::vector<std::uint8_t> seen(topo.node_count(), 0);
  std::vector<NodeId> stack{src};
  seen[src] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (v == dst) return true;
    for (const auto& adj : topo.neighbors(v)) {
      if ((removed_mask >> adj.link) & 1) continue;
      if (seen[adj.neighbor] == 0) {
        seen[adj.neighbor] = 1;
        stack.push_back(adj.neighbor);
      }
    }
  }
  return false;
}

/// Brute force: min number of link removals that disconnects the pair.
std::uint32_t brute_min_cut(const Topology& topo, NodeId src, NodeId dst) {
  const std::uint32_t links = static_cast<std::uint32_t>(topo.link_count());
  for (std::uint32_t k = 0; k <= links; ++k) {
    for (std::uint32_t mask = 0; mask < (1u << links); ++mask) {
      if (static_cast<std::uint32_t>(std::popcount(mask)) != k) continue;
      if (!connected_without(topo, src, dst, mask)) return k;
    }
  }
  return links + 1;
}

TEST(ArcBaseline, MinCutMatchesBruteForceOnRandomGraphs) {
  std::mt19937 rng(12345);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = 4 + static_cast<int>(rng() % 4);  // 4..7 nodes
    Topology topo;
    for (int i = 0; i < n; ++i) topo.add_node("n" + std::to_string(i));
    for (int i = 1; i < n; ++i) {
      topo.add_link(static_cast<NodeId>(i),
                    static_cast<NodeId>(rng() % static_cast<unsigned>(i)));
    }
    while (topo.link_count() < static_cast<std::size_t>(n) + 2 &&
           topo.link_count() < 14) {
      const NodeId a = rng() % n;
      const NodeId b = rng() % n;
      if (a != b && topo.find_link(a, b) == kNoLink) topo.add_link(a, b);
    }
    const NodeId s = 0;
    const NodeId t = static_cast<NodeId>(n - 1);
    arc::MaxFlow mf(topo.node_count());
    for (const Link& l : topo.links()) mf.add_undirected_edge(l.a, l.b);
    EXPECT_EQ(mf.run(s, t), brute_min_cut(topo, s, t)) << "iter " << iter;
  }
}

TEST(ArcBaseline, RingConnectivity) {
  const Network net = make_ring(8);
  arc::ArcVerifier arc_v(net);
  std::vector<NodeId> all;
  for (NodeId n = 0; n < net.topo.node_count(); ++n) all.push_back(n);
  EXPECT_TRUE(arc_v.check_all_to_all(all, 1).holds);   // ring survives 1 failure
  EXPECT_FALSE(arc_v.check_all_to_all(all, 2).holds);  // but not 2
}

TEST(ArcBaseline, AgreesWithPlanktonOnFatTree) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  arc::ArcVerifier arc_v(ft.net);
  for (const int k : {0, 1, 2}) {
    const arc::ArcResult ar =
        arc_v.check_all_to_all({ft.edges.data(), ft.edges.size()}, k);
    VerifyOptions vo;
    vo.explore.max_failures = k;
    Verifier verifier(ft.net, vo);
    const ReachabilityPolicy policy({ft.edges.begin(), ft.edges.end()});
    const VerifyResult pr = verifier.verify(policy);
    EXPECT_EQ(ar.holds, pr.verdict == Verdict::kHolds) << "k=" << k;
  }
}

}  // namespace
}  // namespace plankton
