// DEC/LEC computation and Bonsai compression.
#include <gtest/gtest.h>

#include "core/verifier.hpp"
#include "eqclass/bonsai.hpp"
#include "eqclass/dec.hpp"
#include "netbase/hash.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

TEST(Dec, SymmetricRingCollapsesAroundOrigin) {
  const Network net = make_ring(8);
  std::vector<std::uint64_t> sig(8, 1);
  sig[0] = 2;  // the origin is distinguished
  const FailureSet none(net.topo.link_count());
  const DecPartition dec = DecPartition::compute(net.topo, sig, none);
  // Mirror symmetry around node 0: nodes i and 8-i must share a color.
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(dec.color(i), dec.color((8 - i) % 8)) << i;
  }
  EXPECT_LT(dec.num_colors(), 8u);
}

TEST(Dec, LecRepresentativesShrinkFatTreeFailureChoices) {
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  std::vector<std::uint64_t> sig(ft.net.topo.node_count(), 1);
  sig[ft.edges[0]] = 2;  // destination edge distinguished
  const FailureSet none(ft.net.topo.link_count());
  const DecPartition dec = DecPartition::compute(ft.net.topo, sig, none);
  const auto reps = dec.lec_representatives(ft.net.topo, none);
  EXPECT_LT(reps.size(), ft.net.topo.link_count() / 2)
      << "symmetry must collapse most failure choices";
}

TEST(Dec, AsymmetricWeightsKeepClassesApart) {
  Network net;
  for (int i = 0; i < 3; ++i) net.add_device("n" + std::to_string(i));
  net.topo.add_link(0, 1, 1);
  net.topo.add_link(0, 2, 99);  // different cost: 1 and 2 are distinguishable
  std::vector<std::uint64_t> sig(3, 7);
  const FailureSet none(net.topo.link_count());
  const DecPartition dec = DecPartition::compute(net.topo, sig, none);
  EXPECT_NE(dec.color(1), dec.color(2));
}

TEST(Bonsai, CompressesFatTreeSubstantially) {
  FatTreeOptions o;
  o.k = 8;  // 80 devices
  const FatTree ft = make_fat_tree(o);
  const BonsaiResult b =
      bonsai_compress_ospf(ft.net, ft.edge_prefixes[0], {{ft.edges[5]}});
  EXPECT_LT(b.net.topo.node_count(), ft.net.topo.node_count() / 4);
  EXPECT_GE(b.net.topo.node_count(), 4u);
}

TEST(Bonsai, PreservesReachabilityVerdict) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  for (const std::size_t dst : {std::size_t{0}, std::size_t{3}}) {
    const NodeId src = ft.edges[(dst + 2) % ft.edges.size()];
    const BonsaiResult b =
        bonsai_compress_ospf(ft.net, ft.edge_prefixes[dst], {{src}});
    // Original verdict.
    Verifier orig(ft.net, {});
    const ReachabilityPolicy orig_policy({src});
    const Verdict orig_verdict =
        orig.verify_address(ft.edge_prefixes[dst].addr(), orig_policy).verdict;
    // Compressed verdict.
    Verifier comp(b.net, {});
    const ReachabilityPolicy comp_policy({b.abstract_of(src)});
    const Verdict comp_verdict =
        comp.verify_address(ft.edge_prefixes[dst].addr(), comp_policy).verdict;
    EXPECT_EQ(orig_verdict, comp_verdict);
    EXPECT_EQ(comp_verdict, Verdict::kHolds);
  }
}

TEST(Bonsai, PreservesPathLength) {
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  const NodeId src = ft.edges[4];
  const BonsaiResult b = bonsai_compress_ospf(ft.net, ft.edge_prefixes[0], {{src}});
  for (const std::uint32_t limit : {3u, 4u}) {
    Verifier orig(ft.net, {});
    const BoundedPathLengthPolicy op({src}, limit);
    Verifier comp(b.net, {});
    const BoundedPathLengthPolicy cp({b.abstract_of(src)}, limit);
    EXPECT_EQ(orig.verify_address(ft.edge_prefixes[0].addr(), op).verdict,
              comp.verify_address(ft.edge_prefixes[0].addr(), cp).verdict)
        << "limit " << limit;
  }
}

TEST(Bonsai, RejectsNonOspfNetworks) {
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(o);
  EXPECT_THROW(bonsai_compress_ospf(ft.net, ft.edge_prefixes[0], {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace plankton
