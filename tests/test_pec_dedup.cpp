// Batch PEC verification (eqclass/pec_dedup.hpp): fingerprint invariance
// under node/prefix renaming, collision resistance on near-miss configs,
// topology validation by value (with and without parallel links), classing
// on renumbered input, verdict/trail translation, the singleton fallback on
// asymmetry, and no classing where no representative can prove a hold.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "eqclass/pec_dedup.hpp"
#include "serve/serve.hpp"
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

/// An OSPF ring r0-r1-...-r0 of `size` routers at cost 3, each router
/// originating its own /24. `doubled` ring links (link i joins r<i> and
/// r<i+1 mod size>) get a second, parallel link at cost 5.
Network parallel_ring(std::size_t size, const std::vector<NodeId>& doubled) {
  Network net;
  for (std::size_t i = 0; i < size; ++i) {
    const NodeId n = net.add_device("r" + std::to_string(i),
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
  // On a 6-ring the (color, id) pairing of two adjacent origins maps r1-r2
  // onto r0-r3, which is no link: validation must reject it, through the
  // sorted arc lists when every node has parallel links and through the
  // stamped adjacency when none has.
  {
    SCOPED_TRACE("6-ring, every link doubled");
    check(parallel_ring(6, {0, 1, 2, 3, 4, 5}), 2);
  }
  {
    SCOPED_TRACE("6-ring, no parallel links");
    check(parallel_ring(6, {}), 2);
  }
}

TEST(PecDedup, RenumberedFatTreeKeepsOneClassPerPod) {
  // Inputs renumber devices freely (the e2e bench shuffles declarations).
  // Colors are renaming-invariant, but the candidate bijection breaks color
  // ties by node id, so after a shuffle a cross-pod pairing no longer lines
  // up: the tree folds into one class per pod, never more.
  FatTreeOptions o;
  o.k = 8;
  const std::string text = serve::render_config(make_fat_tree(o).net);
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  std::size_t nodes = 0;  // render_config declares every node first
  while (nodes < lines.size() && lines[nodes].starts_with("node ")) ++nodes;
  ASSERT_EQ(nodes, 80u);
  const LoopFreedomPolicy policy;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("shuffle seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<std::string> shuffled = lines;
    for (std::size_t i = nodes; i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng() % i]);
    }
    std::string config;
    for (const std::string& l : shuffled) config += l + "\n";
    const Network net = parse_network_config(config).net;
    ASSERT_EQ(compute_pecs(net).routed().size(), 32u);
    EXPECT_LE(classes_of(net, policy).stats.classes, 8u);
    const VerifyResult on = run(net, policy, true);
    const VerifyResult off = run(net, policy, false);
    EXPECT_EQ(on.verdict, Verdict::kHolds);
    EXPECT_EQ(on.verdict, off.verdict);
    EXPECT_EQ(on.reports.size(), off.reports.size());
    EXPECT_EQ(violation_multiset(on), violation_multiset(off));
  }
}

TEST(PecDedup, ClassingIsSkippedWhenNoHoldCanTransfer) {
  // Under single execution or a lossy visited store no representative can
  // be a clean hold, so every member would re-run natively (sharded: inline
  // on the representative's worker). The verifier must not class at all
  // then, and the run must equal the dedup-off run.
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
