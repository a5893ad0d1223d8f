// Batch PEC verification (eqclass/pec_dedup.hpp): fingerprint invariance
// under node/prefix renaming, collision resistance on near-miss configs,
// topology validation by value (with and without parallel links), a class
// partition that does not depend on device numbering, a refinement-blind
// pair that the isomorphism search keeps apart, members placed by orbit and
// members whose orbit product fails and who search, refinement-blind
// networks on which a non-automorphism generator would merge classes,
// verdict/trail translation, the singleton fallback on asymmetry, and no
// classing where no representative can prove a hold.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "eqclass/pec_dedup.hpp"
#include "serve/serve.hpp"
#include "support/random_net.hpp"
#include "workload/fat_tree.hpp"

namespace plankton {
namespace {

/// Class partition over all routed PECs of `net` under `policy`.
PecClassSet classes_of(const Network& net, const Policy& policy) {
  const PecSet pecs = compute_pecs(net);
  const PecDependencies deps = compute_dependencies(net, pecs);
  std::vector<std::uint8_t> needed(pecs.pecs.size(), 0);
  std::vector<std::uint8_t> is_target(pecs.pecs.size(), 0);
  for (const PecId p : pecs.routed()) needed[p] = is_target[p] = 1;
  return compute_pec_classes(net, pecs, deps, policy, needed, is_target);
}

/// Everything the dedup contract promises stays bit-identical: verdict plus
/// the per-PEC violation multiset including rendered trail text.
std::multiset<std::string> violation_multiset(const VerifyResult& r) {
  std::multiset<std::string> out;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      out.insert(rep.pec_str + "|" + v.failures.str() + "|" + v.message + "|" +
                 v.trail_text);
    }
  }
  return out;
}

VerifyResult run(const Network& net, const Policy& policy, bool dedup,
                 bool find_all = false) {
  VerifyOptions vo;
  vo.cores = 1;
  vo.pec_dedup = dedup;
  vo.explore.find_all_violations = find_all;
  Verifier verifier(net, vo);
  return verifier.verify(policy);
}

/// Two symmetric OSPF routers, each originating its own /24: the minimal
/// renaming-equivalent pair (different origin node, different prefix value).
Network symmetric_pair() {
  Network net;
  const NodeId a = net.add_device("a", IpAddr(10, 0, 0, 1));
  const NodeId b = net.add_device("b", IpAddr(10, 0, 0, 2));
  net.topo.add_link(a, b, 5);
  for (const NodeId n : {a, b}) {
    net.device(n).ospf.enabled = true;
    net.device(n).ospf.advertise_loopback = false;
  }
  net.device(a).ospf.originated.push_back(*Prefix::parse("10.1.0.0/24"));
  net.device(b).ospf.originated.push_back(*Prefix::parse("10.2.0.0/24"));
  return net;
}

TEST(PecDedup, RenamingInvarianceMergesSymmetricPair) {
  const Network net = symmetric_pair();
  const LoopFreedomPolicy policy;
  const PecClassSet cs = classes_of(net, policy);
  EXPECT_EQ(cs.stats.classes, 1u);
  EXPECT_EQ(cs.stats.deduped, 1u);
  EXPECT_EQ(cs.stats.singletons, 0u);

  const VerifyResult on = run(net, policy, true);
  const VerifyResult off = run(net, policy, false);
  EXPECT_EQ(on.verdict, Verdict::kHolds);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.pec_classes, 1u);
  EXPECT_EQ(on.pecs_deduped, 1u);
  EXPECT_EQ(on.pecs_verified, off.pecs_verified);
  // The translated member reports under its own PEC string.
  std::set<std::string> strs;
  for (const auto& rep : on.reports) strs.insert(rep.pec_str);
  std::set<std::string> strs_off;
  for (const auto& rep : off.reports) strs_off.insert(rep.pec_str);
  EXPECT_EQ(strs, strs_off);
}

TEST(PecDedup, FatTreeAllPairsCollapsesToOneClass) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kMatching;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  const PecClassSet cs = classes_of(ft.net, policy);
  // All k^2/2 = 8 edge-prefix PECs are isomorphic under a fabric
  // automorphism: one representative explores for everyone.
  EXPECT_EQ(cs.stats.classes, 1u);
  EXPECT_EQ(cs.stats.deduped, ft.edges.size() - 1);

  const VerifyResult on = run(ft.net, policy, true);
  const VerifyResult off = run(ft.net, policy, false);
  EXPECT_EQ(on.verdict, Verdict::kHolds);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.reports.size(), off.reports.size());
  // The win the bench measures: one exploration instead of eight.
  EXPECT_LE(on.total.states_explored * 4, off.total.states_explored);
  std::size_t translated = 0;
  for (const auto& rep : on.reports) {
    if (rep.translated_from != kNoPec) ++translated;
  }
  EXPECT_EQ(translated, ft.edges.size() - 1);
}

TEST(PecDedup, PolicySourcesPinTheRenaming) {
  // Reachability from edge 0: PECs whose isomorphism would have to move the
  // source cannot merge with PECs where it is fixed — but PECs symmetric
  // *around* the source still can.
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const ReachabilityPolicy policy({ft.edges[0]});
  const PecClassSet cs = classes_of(ft.net, policy);
  // Sanity: fewer classes than PECs (some symmetry survives fixing the
  // source), more than one (the source's own pod is distinguished).
  EXPECT_GT(cs.stats.classes, 1u);
  EXPECT_LT(cs.stats.classes, ft.edges.size());
  const VerifyResult on = run(ft.net, policy, true);
  const VerifyResult off = run(ft.net, policy, false);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(violation_multiset(on), violation_multiset(off));
}

TEST(PecDedup, NearMissOneExtraRouteSplitsTheClass) {
  Network net = symmetric_pair();
  // One static drop for b's prefix at a: the slices now differ in exactly
  // one route — the classes must not merge.
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.2.0.0/24");
  sr.drop = true;
  net.device(0).statics.push_back(sr);
  const LoopFreedomPolicy policy;
  const PecClassSet cs = classes_of(net, policy);
  EXPECT_EQ(cs.stats.classes, 2u);
  EXPECT_EQ(cs.stats.deduped, 0u);
}

TEST(PecDedup, NearMissAsymmetricCostSplitsTheClass) {
  Network net = symmetric_pair();
  const NodeId c = net.add_device("c", IpAddr(10, 0, 0, 3));
  net.device(c).ospf.enabled = true;
  net.device(c).ospf.advertise_loopback = false;
  net.device(c).ospf.originated.push_back(*Prefix::parse("10.3.0.0/24"));
  // a-b cost 5 (from symmetric_pair), b-c cost 7: the chain ends are no
  // longer exchangeable; every PEC is its own class.
  net.topo.add_link(1, c, 7);
  const LoopFreedomPolicy policy;
  const PecClassSet cs = classes_of(net, policy);
  EXPECT_EQ(cs.stats.classes, 3u);
  EXPECT_EQ(cs.stats.deduped, 0u);
  EXPECT_EQ(cs.stats.singletons, 3u);
}

/// Two eBGP routers, each originating one prefix; `import_clause` (if any)
/// is installed on a's import from b.
Network bgp_pair(const RouteMapClause* import_clause) {
  Network net;
  const NodeId a = net.add_device("a", IpAddr(10, 0, 0, 1));
  const NodeId b = net.add_device("b", IpAddr(10, 0, 0, 2));
  net.topo.add_link(a, b);
  for (const NodeId n : {a, b}) {
    net.device(n).bgp.emplace();
    net.device(n).bgp->asn = 100 + n;
  }
  net.device(a).bgp->originated.push_back(*Prefix::parse("10.1.0.0/24"));
  net.device(b).bgp->originated.push_back(*Prefix::parse("10.2.0.0/24"));
  BgpSession sa;
  sa.peer = b;
  if (import_clause != nullptr) sa.import.clauses.push_back(*import_clause);
  net.device(a).bgp->sessions.push_back(sa);
  BgpSession sb;
  sb.peer = a;
  net.device(b).bgp->sessions.push_back(sb);
  return net;
}

TEST(PecDedup, RouteMapFootprintDistinguishesPolicyHooks) {
  // A clause matching exactly b's prefix changes how a treats one PEC and
  // not the other: no merge.
  RouteMapClause hook;
  hook.match.prefix = *Prefix::parse("10.2.0.0/24");
  hook.action.set_local_pref = 200;
  const Network hooked = bgp_pair(&hook);
  const LoopFreedomPolicy policy;
  EXPECT_EQ(classes_of(hooked, policy).stats.deduped, 0u);

  // An inert clause (matches neither PEC's prefixes) is invisible to both
  // explorations — the footprint canonicalization must still merge.
  RouteMapClause inert;
  inert.match.prefix = *Prefix::parse("192.168.0.0/24");
  inert.action.set_local_pref = 200;
  const Network inert_net = bgp_pair(&inert);
  // The 192.168.0.0/24 mention creates an extra (unrouted) PEC but must not
  // stop 10.1/10.2 from sharing a class.
  EXPECT_EQ(classes_of(inert_net, policy).stats.deduped, 1u);
}

TEST(PecDedup, ValidationCatchesWhatTwinCellsHide) {
  // eBGP routers o, a1, a2, b1, b2: o links to both a's, each a to both b's.
  // o originates two prefixes, and each b's import from each a sets local
  // preference on the first prefix only. a1/a2 and b1/b2 are twin cells
  // (identical labelled neighbours), which refinement never touches, so
  // the route maps between them never reach the trace: the two PECs get
  // equal fingerprints and the member's leaf bijection is tried. Only
  // validation sees that the b's treat the two prefixes differently.
  Network net;
  const NodeId o = net.add_device("o", IpAddr(10, 0, 0, 1));
  const NodeId as[2] = {net.add_device("a1", IpAddr(10, 0, 0, 2)),
                        net.add_device("a2", IpAddr(10, 0, 0, 3))};
  const NodeId bs[2] = {net.add_device("b1", IpAddr(10, 0, 0, 4)),
                        net.add_device("b2", IpAddr(10, 0, 0, 5))};
  for (NodeId n = 0; n < 5; ++n) {
    net.device(n).bgp.emplace();
    net.device(n).bgp->asn = 100 + n;
  }
  RouteMapClause hook;
  hook.match.prefix = *Prefix::parse("10.1.0.0/24");
  hook.action.set_local_pref = 200;
  const auto peer = [&](NodeId x, NodeId y, bool hooked) {
    net.topo.add_link(x, y);
    BgpSession to_y;
    to_y.peer = y;
    net.device(x).bgp->sessions.push_back(to_y);
    BgpSession to_x;
    to_x.peer = x;
    if (hooked) to_x.import.clauses.push_back(hook);
    net.device(y).bgp->sessions.push_back(to_x);
  };
  for (const NodeId a : as) {
    peer(o, a, false);
    for (const NodeId b : bs) peer(a, b, true);
  }
  net.device(o).bgp->originated.push_back(*Prefix::parse("10.1.0.0/24"));
  net.device(o).bgp->originated.push_back(*Prefix::parse("10.2.0.0/24"));
  const LoopFreedomPolicy policy;
  ASSERT_EQ(compute_pecs(net).routed().size(), 2u);
  const PecClassSet cs = classes_of(net, policy);
  EXPECT_EQ(cs.stats.classes, 2u);
  EXPECT_EQ(cs.stats.deduped, 0u);
  EXPECT_EQ(cs.stats.search_fallbacks, 0u);
  const VerifyResult on = run(net, policy, true);
  const VerifyResult off = run(net, policy, false);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(violation_multiset(on), violation_multiset(off));
}

TEST(PecDedup, ViolationFallbackKeepsTrailsBitIdentical) {
  // Broken core statics: forwarding loops. A violated representative must
  // not translate — members re-explore natively, so violation multisets and
  // rendered trail text match the dedup-off run byte for byte.
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  const VerifyResult on = run(ft.net, policy, true, /*find_all=*/true);
  const VerifyResult off = run(ft.net, policy, false, /*find_all=*/true);
  EXPECT_EQ(on.verdict, Verdict::kViolated);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.reports.size(), off.reports.size());
  EXPECT_EQ(violation_multiset(on), violation_multiset(off));

  // Multi-core: fallback members are spawned as dynamic subtasks and may be
  // stolen by any worker; the merged result must not change.
  VerifyOptions vo;
  vo.cores = 4;
  vo.pec_dedup = true;
  vo.explore.find_all_violations = true;
  Verifier verifier(ft.net, vo);
  const VerifyResult par = verifier.verify(policy);
  EXPECT_EQ(par.verdict, off.verdict);
  EXPECT_EQ(par.reports.size(), off.reports.size());
  EXPECT_EQ(violation_multiset(par), violation_multiset(off));
  EXPECT_EQ(par.dedup_reruns, on.dedup_reruns);
}

TEST(PecDedup, EarlyStopViolationVerdictMatches) {
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  const VerifyResult on = run(ft.net, policy, true, /*find_all=*/false);
  const VerifyResult off = run(ft.net, policy, false, /*find_all=*/false);
  EXPECT_EQ(on.verdict, Verdict::kViolated);
  EXPECT_EQ(on.verdict, off.verdict);
}

TEST(PecDedup, AsymmetricWorkloadFallsBackToSingletons) {
  // A cost-asymmetric chain: no two PECs are isomorphic. Dedup must degrade
  // to singleton classes and change nothing about the result.
  Network net;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    const NodeId n =
        net.add_device("r" + std::to_string(i), IpAddr(10, 0, 0, 10 + i));
    net.device(n).ospf.enabled = true;
    net.device(n).ospf.advertise_loopback = false;
    net.device(n).ospf.originated.push_back(
        *Prefix::parse("10." + std::to_string(i + 1) + ".0.0/24"));
    nodes.push_back(n);
  }
  for (int i = 0; i + 1 < 5; ++i) {
    net.topo.add_link(nodes[i], nodes[i + 1], 1 + i);
  }
  const LoopFreedomPolicy policy;
  const PecClassSet cs = classes_of(net, policy);
  EXPECT_EQ(cs.stats.classes, 5u);
  EXPECT_EQ(cs.stats.deduped, 0u);
  EXPECT_EQ(cs.stats.singletons, 5u);

  const VerifyResult on = run(net, policy, true);
  const VerifyResult off = run(net, policy, false);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.pecs_deduped, 0u);
  EXPECT_EQ(on.total.states_explored, off.total.states_explored);
}

TEST(PecDedup, DependentPecsAreNeverGrouped) {
  // Recursive static routes (via_ip) couple PECs through converged
  // outcomes; such PECs must stay singleton even when symmetric.
  Network net = symmetric_pair();
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.9.0.0/24");
  sr.via_ip = IpAddr(10, 1, 0, 1);  // resolves through a's PEC
  net.device(1).statics.push_back(sr);
  const LoopFreedomPolicy policy;
  const PecClassSet cs = classes_of(net, policy);
  const PecSet pecs = compute_pecs(net);
  // The dependent PEC (the static's destination) and its dependency (the
  // PEC holding the recursive next hop) must both stay singleton; sibling
  // fragments of a's /24 that carry no dependency edge may still merge.
  const PecId dependent = pecs.find(IpAddr(10, 9, 0, 7));
  const PecId dependency = pecs.find(IpAddr(10, 1, 0, 1));
  EXPECT_EQ(cs.rep_of[dependent], dependent);
  EXPECT_TRUE(cs.members_of[dependent].empty());
  EXPECT_EQ(cs.rep_of[dependency], dependency);
  EXPECT_TRUE(cs.members_of[dependency].empty());
  for (PecId p = 0; p < cs.rep_of.size(); ++p) {
    if (!cs.is_translated_member(p)) continue;
    EXPECT_NE(p, dependent);
    EXPECT_NE(p, dependency);
  }
}

/// `stem` followed by `i`, built by appending: GCC 12 misreports -Wrestrict
/// when a literal is prepended to a temporary string.
std::string numbered(std::string stem, std::size_t i) {
  stem += std::to_string(i);
  return stem;
}

/// An OSPF ring r0-r1-...-r0 of `size` routers at cost 3, each router
/// originating its own /24. `doubled` ring links (link i joins r<i> and
/// r<i+1 mod size>) get a second, parallel link at cost 5.
Network parallel_ring(std::size_t size, const std::vector<NodeId>& doubled) {
  Network net;
  for (std::size_t i = 0; i < size; ++i) {
    const NodeId n = net.add_device(numbered("r", i),
                                    IpAddr(10, 0, 0, static_cast<std::uint8_t>(1 + i)));
    net.device(n).ospf.enabled = true;
    net.device(n).ospf.advertise_loopback = false;
    net.device(n).ospf.originated.push_back(
        *Prefix::parse("10." + std::to_string(i + 1) + ".0.0/24"));
  }
  const auto next = [size](NodeId i) { return static_cast<NodeId>((i + 1) % size); };
  for (NodeId i = 0; i < size; ++i) net.topo.add_link(i, next(i), 3);
  for (const NodeId i : doubled) net.topo.add_link(i, next(i), 5);
  return net;
}

TEST(PecDedup, ParallelLinksValidateByValue) {
  // Parallel links put two arcs to one neighbor in a node's adjacency, so
  // topology validation cannot look a mapped neighbor up by id and compares
  // sorted (neighbor, cost, return cost) lists instead.
  const LoopFreedomPolicy policy;
  const auto check = [&](const Network& net, std::size_t classes) {
    EXPECT_EQ(classes_of(net, policy).stats.classes, classes);
    const VerifyResult on = run(net, policy, true, /*find_all=*/true);
    const VerifyResult off = run(net, policy, false, /*find_all=*/true);
    EXPECT_EQ(on.verdict, Verdict::kHolds);
    EXPECT_EQ(on.verdict, off.verdict);
    EXPECT_EQ(on.reports.size(), off.reports.size());
    EXPECT_EQ(violation_multiset(on), violation_multiset(off));
  };
  {
    SCOPED_TRACE("every ring link doubled: all four rotations validate");
    check(parallel_ring(4, {0, 1, 2, 3}), 1);
  }
  {
    SCOPED_TRACE("one parallel link costs 5 one way and 6 the other");
    Network net = parallel_ring(4, {0, 1, 2, 3});
    net.topo.set_link_cost(4, 5, 6);  // the r0-r1 parallel link
    check(net, 4);
  }
  {
    SCOPED_TRACE("only r0-r1 doubled: the reflection swapping r0/r1 remains");
    check(parallel_ring(4, {0}), 2);
  }
  // On a 6-ring every rotation is an automorphism, so all six PECs fold
  // into one class; each member's leaf bijection is a rotation, validated
  // through the sorted arc lists when every node has parallel links and
  // through the stamped adjacency when none has.
  {
    SCOPED_TRACE("6-ring, every link doubled");
    check(parallel_ring(6, {0, 1, 2, 3, 4, 5}), 1);
  }
  {
    SCOPED_TRACE("6-ring, no parallel links");
    check(parallel_ring(6, {}), 1);
  }
}

/// Adds a 16-router OSPF component: router (i, j), i, j in 0..3, links to
/// (i + di, j + dj) mod 4 for each (di, dj) of the connection set. The 4x4
/// rook's graph takes {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)}, the
/// Shrikhande graph {(0, +-1), (+-1, 0), +-(1, 1)}: both are strongly
/// regular with parameters (16, 6, 2, 2), and they are not isomorphic.
/// Router (0, 0) originates 10.<tag>.0.0/24.
void add_srg_component(Network& net, int tag, bool rook) {
  const int rook_set[6][2] = {{0, 1}, {0, 2}, {0, 3}, {1, 0}, {2, 0}, {3, 0}};
  const int shrikhande_set[6][2] = {{0, 1}, {0, 3}, {1, 0}, {3, 0}, {1, 1}, {3, 3}};
  const auto& set = rook ? rook_set : shrikhande_set;
  const NodeId first = static_cast<NodeId>(net.topo.node_count());
  for (int v = 0; v < 16; ++v) {
    const NodeId n = net.add_device(
        numbered(numbered("c", tag) + "-", v),
        IpAddr(10, 200, static_cast<std::uint8_t>(tag), static_cast<std::uint8_t>(v + 1)));
    net.device(n).ospf.enabled = true;
    net.device(n).ospf.advertise_loopback = false;
  }
  for (int v = 0; v < 16; ++v) {
    for (const auto& d : set) {
      const int w = ((v / 4 + d[0]) % 4) * 4 + (v % 4 + d[1]) % 4;
      if (v < w) net.topo.add_link(first + v, first + w, 10);
    }
  }
  net.device(first).ospf.originated.push_back(
      *Prefix::parse("10." + std::to_string(tag) + ".0.0/24"));
}

TEST(PecDedup, RefinementBlindPairStaysApart) {
  // One network, two components: the rook's graph and the Shrikhande graph,
  // each originating one prefix. Every router has six neighbours and every
  // pair has two common ones, so refinement cannot tell the components or
  // the two PECs apart: their fingerprints match. No isomorphism maps one
  // PEC onto the other, so the member's search backtracks over its cells
  // and runs out of steps; the member stays in its own class, and the
  // fallback is counted. With two rook's graphs the same search replays the
  // representative's path on its first tries.
  const LoopFreedomPolicy policy;
  const auto check = [&](bool second_rook, std::size_t classes,
                         std::size_t fallbacks) {
    Network net;
    add_srg_component(net, 1, true);
    add_srg_component(net, 2, second_rook);
    ASSERT_EQ(compute_pecs(net).routed().size(), 2u);
    const PecClassSet cs = classes_of(net, policy);
    EXPECT_EQ(cs.stats.classes, classes);
    EXPECT_EQ(cs.stats.search_fallbacks, fallbacks);
    const VerifyResult on = run(net, policy, true);
    const VerifyResult off = run(net, policy, false);
    EXPECT_EQ(on.verdict, Verdict::kHolds);
    EXPECT_EQ(on.verdict, off.verdict);
    EXPECT_EQ(on.reports.size(), off.reports.size());
    EXPECT_EQ(violation_multiset(on), violation_multiset(off));
    EXPECT_EQ(on.pec_classes, classes);
    EXPECT_EQ(on.dedup_search_fallbacks, fallbacks);
  };
  {
    SCOPED_TRACE("rook's graph and Shrikhande graph");
    check(false, 2, 1);
  }
  {
    SCOPED_TRACE("two rook's graphs");
    check(true, 1, 0);
  }
}

/// `net` rendered with `serve::render_config`, its `node` lines permuted by
/// `seed`, and parsed back. The parser numbers devices in declaration order,
/// so the permutation renumbers every device.
Network renumbered(const Network& net, std::uint64_t seed) {
  const std::string text = serve::render_config(net);
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  std::size_t nodes = 0;  // render_config declares every node first
  while (nodes < lines.size() && lines[nodes].starts_with("node ")) ++nodes;
  EXPECT_EQ(nodes, net.topo.node_count());
  std::mt19937_64 rng(seed);
  for (std::size_t i = nodes; i > 1; --i) std::swap(lines[i - 1], lines[rng() % i]);
  std::string config;
  for (const std::string& l : lines) config += l + "\n";
  return parse_network_config(config).net;
}

/// Random instances to check: PLANKTON_DIFF_SEEDS, as in the differential
/// suites, or 220.
int random_instance_count() {
  const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
  if (v != nullptr && std::atoi(v) > 0) return std::atoi(v);
  return 220;
}

TEST(PecDedup, RenumberingKeepsTheClassPartition) {
  // Inputs renumber devices freely (the e2e bench shuffles declarations,
  // and operator-written configs have no generator order). The classer
  // searches for an isomorphism instead of pairing nodes by id, so the
  // partition must not move: every fat tree folds into one class under
  // any numbering, and a random instance's rep_of is the same under every
  // shuffle. Verdicts under renumbering are compared on the OSPF trees only
  // (BGP exploration order depends on numbering: ROADMAP item 1).
  for (const int k : {4, 8}) {
    for (const bool bgp : {false, true}) {
      FatTreeOptions o;
      o.k = k;
      o.routing = bgp ? FatTreeOptions::Routing::kBgpRfc7938
                      : FatTreeOptions::Routing::kOspf;
      const FatTree ft = make_fat_tree(o);
      const LoopFreedomPolicy policy;
      const std::vector<PecId> generator_order = classes_of(ft.net, policy).rep_of;
      for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("k=" + std::to_string(k) + (bgp ? " eBGP" : " OSPF") +
                     ", shuffle seed " + std::to_string(seed));
        const Network net = renumbered(ft.net, seed);
        ASSERT_EQ(compute_pecs(net).routed().size(), ft.edges.size());
        const PecClassSet cs = classes_of(net, policy);
        EXPECT_EQ(cs.stats.classes, 1u);
        EXPECT_EQ(cs.stats.search_fallbacks, 0u);
        EXPECT_GT(cs.stats.orbit_hits, 0u);
        EXPECT_EQ(cs.rep_of, generator_order);
        if (bgp) continue;
        const VerifyResult on = run(net, policy, true);
        const VerifyResult off = run(net, policy, false);
        EXPECT_EQ(on.verdict, Verdict::kHolds);
        EXPECT_EQ(on.verdict, off.verdict);
        EXPECT_EQ(on.reports.size(), off.reports.size());
        EXPECT_EQ(violation_multiset(on), violation_multiset(off));
      }
    }
  }
  const int count = random_instance_count();
  std::size_t merged = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const testsupport::RandomInstance inst =
        testsupport::make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind + ")");
    const std::string spec = inst.policy->spec(inst.net);
    ASSERT_FALSE(spec.empty());
    std::vector<PecId> reference;
    for (const std::uint64_t shuffle : {0u, 1u, 2u, 3u}) {
      // Shuffle 0 keeps the declaration order: it is the reference.
      const Network net = shuffle == 0 ? parse_network_config(
                                             serve::render_config(inst.net)).net
                                       : renumbered(inst.net, shuffle);
      std::string error;
      const std::unique_ptr<Policy> policy = make_policy(net, spec, error);
      ASSERT_NE(policy, nullptr) << error;
      const PecClassSet cs = classes_of(net, *policy);
      if (shuffle == 0) {
        reference = cs.rep_of;
        merged += cs.stats.deduped;
      } else {
        EXPECT_EQ(cs.rep_of, reference) << "shuffle " << shuffle;
      }
    }
  }
  // The corpus must merge some PECs, or the random arm checks nothing.
  EXPECT_GT(merged, 0u);
}

TEST(PecDedup, OrbitPlacesMembersWithoutSearch) {
  // Every validated leaf bijection is a topology automorphism. On a fat tree
  // a few of them generate an orbit holding every edge switch, so most
  // members join by a product of earlier bijections and never search. The
  // first member has no generator yet and must search.
  const LoopFreedomPolicy policy;
  struct Arm {
    int k;
    bool bgp;
  };
  for (const Arm arm : {Arm{8, false}, Arm{8, true}, Arm{20, false}}) {
    FatTreeOptions o;
    o.k = arm.k;
    o.routing = arm.bgp ? FatTreeOptions::Routing::kBgpRfc7938
                        : FatTreeOptions::Routing::kOspf;
    const FatTree ft = make_fat_tree(o);
    const std::vector<PecId> generator_order = classes_of(ft.net, policy).rep_of;
    SCOPED_TRACE("k=" + std::to_string(arm.k) + (arm.bgp ? " eBGP" : " OSPF"));
    const Network net = renumbered(ft.net, 7);
    const PecClassSet cs = classes_of(net, policy);
    EXPECT_EQ(cs.stats.classes, 1u);
    EXPECT_EQ(cs.stats.deduped, ft.edges.size() - 1);
    EXPECT_EQ(cs.stats.search_fallbacks, 0u);
    EXPECT_GT(cs.stats.orbit_hits, 0u);
    EXPECT_LT(cs.stats.orbit_hits, cs.stats.deduped);
    EXPECT_EQ(cs.rep_of, generator_order);
  }
}

TEST(PecDedup, OrbitProductThatFailsConfigFallsBackToSearch) {
  // Edge switch e0 of a fat tree also originates 10.0.0.0/8, which covers
  // every edge prefix, so each edge prefix's PEC holds the /8 at e0 and its
  // own /24 at its edge. The classes are e0's own PEC, its pod mates', the
  // other pods' edges', and the /8 ranges between the /24s (equal slices:
  // they join by the identity). At k=4, refinement also isolates e0's one
  // pod mate in every other-pod PEC and it comes first, so it is the anchor
  // of that class: every member has the representative's anchor, the
  // product is the identity, it fails same_config() because the /24 sits
  // elsewhere, and the member searches. At k=8 the anchor is the /24's
  // origin and the products pass.
  const LoopFreedomPolicy policy;
  for (const int k : {4, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    FatTreeOptions o;
    o.k = k;
    FatTree ft = make_fat_tree(o);
    ft.net.device(ft.edges[0]).ospf.originated.push_back(*Prefix::parse("10.0.0.0/8"));
    for (const std::uint64_t shuffle : {0u, 1u}) {
      const Network net = shuffle == 0 ? ft.net : renumbered(ft.net, shuffle);
      const PecSet pecs = compute_pecs(net);
      const PecClassSet cs = classes_of(net, policy);
      EXPECT_EQ(cs.stats.classes, 4u);
      EXPECT_EQ(cs.stats.search_fallbacks, 0u);
      EXPECT_GT(cs.stats.orbit_hits, 0u);
      // At k=4 the 5 other-pod members all search; the rest join by orbit.
      if (k == 4) {
        EXPECT_EQ(cs.stats.deduped - cs.stats.orbit_hits, 5u);
      }
      // Class of each edge prefix's PEC: e0's, its pod mates', or the rest.
      std::map<PecId, std::set<int>> groups;
      for (std::size_t i = 0; i < ft.edge_prefixes.size(); ++i) {
        const PecId p = pecs.find(ft.edge_prefixes[i].addr());
        const int group = i == 0 ? 0 : i < static_cast<std::size_t>(k / 2) ? 1 : 2;
        groups[cs.rep_of[p]].insert(group);
      }
      ASSERT_EQ(groups.size(), 3u);
      for (const auto& [rep, members] : groups) EXPECT_EQ(members.size(), 1u);
      const VerifyResult on = run(net, policy, true);
      const VerifyResult off = run(net, policy, false);
      EXPECT_EQ(on.verdict, Verdict::kHolds);
      EXPECT_EQ(on.verdict, off.verdict);
      EXPECT_EQ(on.reports.size(), off.reports.size());
      EXPECT_EQ(on.pec_classes, 4u);
      EXPECT_EQ(on.dedup_orbit_hits, cs.stats.orbit_hits);
    }
  }
}

/// One OSPF network of refinement-blind components: each entry of `rooks`
/// adds a 4x4 rook's graph (true) or a Shrikhande graph (false), and every
/// router originates its own /24.
Network srg_network(std::initializer_list<bool> rooks) {
  Network net;
  int tag = 1;
  for (const bool rook : rooks) add_srg_component(net, tag++, rook);
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    auto& originated = net.device(n).ospf.originated;
    originated.clear();
    originated.push_back(Prefix(IpAddr(10, static_cast<std::uint8_t>(n / 16 + 1),
                                       static_cast<std::uint8_t>(n % 16), 0),
                                24));
  }
  return net;
}

TEST(PecDedup, NonAutomorphismGeneratorWouldMergeAsymmetricPecs) {
  // Rook's and Shrikhande graphs are both SRG(16, 6, 2, 2): refinement from
  // any one origin gives every PEC of these networks the same fingerprint,
  // so all of them share one bucket. Only the PECs of one kind of component
  // are isomorphic. A single-origin OSPF PEC passes same_config() under any
  // bijection that maps its origin (the anchor) onto the member's, so the
  // topology check is all that keeps a Shrikhande PEC out of a rook class:
  // if a generator that is not a topology automorphism ever carried a rook
  // anchor into a Shrikhande component, that PEC would join the rook class.
  // True automorphisms keep each component kind to itself.
  const LoopFreedomPolicy policy;
  struct Arm {
    const char* name;
    std::initializer_list<bool> rooks;
  };
  const Arm arms[] = {
      {"rook, Shrikhande", {true, false}},
      {"Shrikhande, rook", {false, true}},
      {"rook, Shrikhande, rook", {true, false, true}},
  };
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    const Network net = srg_network(arm.rooks);
    const PecSet pecs = compute_pecs(net);
    ASSERT_EQ(pecs.routed().size(), net.topo.node_count());
    const PecClassSet cs = classes_of(net, policy);
    EXPECT_EQ(cs.stats.classes, 2u);
    EXPECT_GT(cs.stats.orbit_hits, 0u);
    // Each class holds the PECs of one component kind.
    std::vector<bool> kind_of;  // by component
    for (const bool rook : arm.rooks) kind_of.push_back(rook);
    std::map<PecId, std::set<bool>> kinds;
    for (NodeId n = 0; n < net.topo.node_count(); ++n) {
      const PecId p = pecs.find(IpAddr(10, static_cast<std::uint8_t>(n / 16 + 1),
                                       static_cast<std::uint8_t>(n % 16), 0));
      kinds[cs.rep_of[p]].insert(kind_of[n / 16]);
    }
    ASSERT_EQ(kinds.size(), 2u);
    for (const auto& [rep, members] : kinds) EXPECT_EQ(members.size(), 1u);
  }
}

TEST(PecDedup, ClassingIsSkippedWhenNoHoldCanTransfer) {
  // Under single execution or a lossy visited store no representative can
  // be a clean hold, so every member would re-run natively. The verifier
  // must not class at all then, and the run must equal the dedup-off run.
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  struct Arm {
    const char* name;
    SearchEngineKind engine;
    VisitedKind visited;
  };
  const Arm arms[] = {
      {"single execution", SearchEngineKind::kSingleExecution,
       VisitedKind::kExact},
      {"bitstate", SearchEngineKind::kDfs, VisitedKind::kBitstate},
  };
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    VerifyResult r[2];
    for (const bool dedup : {false, true}) {
      VerifyOptions vo;
      vo.cores = 1;
      vo.pec_dedup = dedup;
      vo.explore.engine_kind = arm.engine;
      vo.explore.visited = arm.visited;
      r[dedup ? 1 : 0] = Verifier(ft.net, vo).verify(policy);
    }
    const VerifyResult& off = r[0];
    const VerifyResult& on = r[1];
    EXPECT_EQ(on.verdict, Verdict::kInconclusive);
    EXPECT_EQ(on.verdict, off.verdict);
    EXPECT_EQ(violation_multiset(on), violation_multiset(off));
    EXPECT_EQ(on.total.states_explored, off.total.states_explored);
    EXPECT_EQ(on.pec_classes, 0u);
    EXPECT_EQ(on.pecs_deduped, 0u);
    EXPECT_EQ(on.dedup_reruns, 0u);
  }
}

TEST(PecDedup, DedupOffSmoke) {
  // The CI --no-pec-dedup path: everything above must also hold with the
  // optimization disabled (this is the regression guard that the flag
  // actually disconnects the machinery).
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  const VerifyResult off = run(ft.net, policy, false);
  EXPECT_EQ(off.verdict, Verdict::kHolds);
  EXPECT_EQ(off.pec_classes, 0u);
  EXPECT_EQ(off.pecs_deduped, 0u);
  for (const auto& rep : off.reports) {
    EXPECT_EQ(rep.translated_from, kNoPec);
  }
}

}  // namespace
}  // namespace plankton
