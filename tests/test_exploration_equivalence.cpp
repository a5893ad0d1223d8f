// The paper's soundness/completeness claims as executable properties:
//
//  * Theorems 1-2: the optimized search (consistent executions only +
//    deterministic nodes + decision independence) reaches exactly the same
//    set of converged data planes as naive exhaustive RPVP exploration.
//  * OSPF's converged state matches the reference Dijkstra computation:
//    IGP costs and next-hop sets, with and without failures.
//  * Policy verdicts agree across optimization levels and failure handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
#include "support/random_net.hpp"
#include "workload/fat_tree.hpp"

namespace plankton {
namespace {

class TruePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "true"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// All converged outcomes of the single routed PEC of `net`, as a set of
/// outcome hashes (data plane + IGP costs + failure set).
std::set<std::uint64_t> converged_set(const Network& net, ExploreOptions opts,
                                      int max_failures) {
  const PecSet pecs = compute_pecs(net);
  const auto routed = pecs.routed();
  EXPECT_EQ(routed.size(), 1u);
  const Pec& pec = pecs.pecs[routed[0]];
  opts.max_failures = max_failures;
  opts.record_outcomes = true;
  opts.find_all_violations = true;
  const TruePolicy policy;
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.budget_tripped, BudgetKind::kNone);
  std::set<std::uint64_t> out;
  for (const auto& o : r.outcomes) out.insert(o.hash);
  return out;
}

Network random_ospf_network(std::mt19937& rng, int n) {
  Network net;
  for (int i = 0; i < n; ++i) {
    const NodeId id = net.add_device("r" + std::to_string(i));
    net.device(id).ospf.enabled = true;
    net.device(id).ospf.advertise_loopback = false;
  }
  for (int i = 1; i < n; ++i) {
    net.topo.add_link(static_cast<NodeId>(i),
                      static_cast<NodeId>(rng() % static_cast<unsigned>(i)),
                      1 + rng() % 5);
  }
  for (int extra = 0; extra < n / 2; ++extra) {
    const NodeId a = rng() % n;
    const NodeId b = rng() % n;
    if (a != b && net.topo.find_link(a, b) == kNoLink) {
      net.topo.add_link(a, b, 1 + rng() % 5);
    }
  }
  net.device(rng() % n).ospf.originated.push_back(*Prefix::parse("10.0.0.0/16"));
  return net;
}

Network random_bgp_network(std::mt19937& rng, int n) {
  Network net;
  for (int i = 0; i < n; ++i) {
    const NodeId id = net.add_device("r" + std::to_string(i));
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 65000 + static_cast<std::uint32_t>(i);
  }
  auto session = [&net](NodeId a, NodeId b) {
    if (net.device(a).bgp->session_with(b) != nullptr) return;
    net.topo.add_link(a, b);
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  };
  for (int i = 1; i < n; ++i) {
    session(static_cast<NodeId>(i), static_cast<NodeId>(rng() % static_cast<unsigned>(i)));
  }
  for (int extra = 0; extra < n / 2; ++extra) {
    const NodeId a = rng() % n;
    const NodeId b = rng() % n;
    if (a != b) session(a, b);
  }
  net.device(0).bgp->originated.push_back(*Prefix::parse("10.0.0.0/16"));
  // Random local-pref policies create genuine multi-stable-state networks.
  for (NodeId v = 1; v < static_cast<NodeId>(n); ++v) {
    for (auto& s : net.device(v).bgp->sessions) {
      if (rng() % 3 == 0) {
        RouteMapClause clause;
        clause.action.set_local_pref = 50 + 50 * (rng() % 4);
        s.import.clauses.push_back(clause);
      }
    }
  }
  return net;
}

class OspfEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OspfEquivalence, OptimizedMatchesNaive) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 1337u);
  for (int iter = 0; iter < 5; ++iter) {
    const Network net = random_ospf_network(rng, 4 + static_cast<int>(rng() % 5));
    for (const int k : {0, 1}) {
      ExploreOptions fast;  // all optimizations on
      fast.lec_failures = false;  // identical failure enumeration on both sides
      ExploreOptions naive = ExploreOptions::naive();
      const auto a = converged_set(net, fast, k);
      const auto b = converged_set(net, naive, k);
      EXPECT_EQ(a, b) << "seed " << GetParam() << " iter " << iter << " k=" << k;
      EXPECT_FALSE(a.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OspfEquivalence, ::testing::Range(1, 7));

class BgpEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BgpEquivalence, OptimizedMatchesNaive) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7331u);
  for (int iter = 0; iter < 5; ++iter) {
    const Network net = random_bgp_network(rng, 4 + static_cast<int>(rng() % 4));
    for (const int k : {0, 1}) {
      ExploreOptions fast;
      fast.lec_failures = false;
      ExploreOptions naive = ExploreOptions::naive();
      const auto a = converged_set(net, fast, k);
      const auto b = converged_set(net, naive, k);
      EXPECT_EQ(a, b) << "seed " << GetParam() << " iter " << iter << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpEquivalence, ::testing::Range(1, 9));

/// Individual optimizations can be disabled without changing the converged
/// set (each one alone must be sound AND complete).
class SingleOptOff : public ::testing::TestWithParam<int> {};

TEST_P(SingleOptOff, ConvergedSetUnchanged) {
  std::mt19937 rng(99);
  const Network net = random_bgp_network(rng, 6);
  ExploreOptions base;
  base.lec_failures = false;
  const auto reference = converged_set(net, base, 1);
  ExploreOptions variant = base;
  switch (GetParam()) {
    case 0: variant.consistent_only = false; break;
    case 1: variant.deterministic_nodes = false; break;
    case 2: variant.decision_independence = false; break;
    case 3: variant.suppress_equivalent = false; break;
  }
  EXPECT_EQ(converged_set(net, variant, 1), reference) << "opt " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Opts, SingleOptOff, ::testing::Range(0, 4));

/// Checks every single-prefix OSPF PEC of `net` against Dijkstra run here:
/// one recorded outcome per failure set, each node's IGP cost is its SPF
/// distance, and each reachable non-origin node forwards to exactly its
/// live peers p with dist(p) + cost(n -> p) == dist(n), over any live link
/// between them. shortest_path_costs is not the Dijkstra OspfProcess runs,
/// so the check shares no code with the explorer.
void expect_outcomes_match_dijkstra(const Network& net, int max_failures) {
  const PecSet pecs = compute_pecs(net);
  int checked = 0;
  for (const PecId p : pecs.routed()) {
    const Pec& pec = pecs.pecs[p];
    if (pec.prefixes.size() != 1 || pec.prefixes[0].ospf_origins.empty() ||
        !pec.prefixes[0].bgp_origins.empty() ||
        !pec.prefixes[0].static_routes.empty()) {
      continue;
    }
    SCOPED_TRACE("pec " + pec.str());
    ExploreOptions opts;
    opts.max_failures = max_failures;
    opts.record_outcomes = true;
    const TruePolicy policy;
    Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
    const ExploreResult r = ex.run();
    ASSERT_EQ(r.budget_tripped, BudgetKind::kNone);
    ASSERT_EQ(r.outcomes.size(), r.stats.failure_sets)
        << "OSPF must converge to one state per failure set";
    const auto& origins = pec.prefixes[0].ospf_origins;
    for (const PecOutcome& o : r.outcomes) {
      SCOPED_TRACE("failures " + o.failures.str());
      const auto dist = shortest_path_costs(net.topo, origins, o.failures);
      for (NodeId n = 0; n < net.topo.node_count(); ++n) {
        EXPECT_EQ(o.igp_cost[n], dist[n]) << "node " << n;
        const FibEntry& e = o.dp.at(n);
        if (std::find(origins.begin(), origins.end(), n) != origins.end()) {
          EXPECT_EQ(e.kind, FwdKind::kLocal) << "node " << n;
          continue;
        }
        std::set<NodeId> expected;
        for (const Adjacency& adj : net.topo.neighbors(n)) {
          if (o.failures.is_failed(adj.link) || dist[adj.neighbor] == kInfiniteCost) {
            continue;
          }
          const Link& l = net.topo.link(adj.link);
          if (std::uint64_t{dist[adj.neighbor]} + l.cost_from(n) == dist[n]) {
            expected.insert(adj.neighbor);
          }
        }
        const std::set<NodeId> got(e.nexthops.begin(), e.nexthops.end());
        EXPECT_EQ(got, expected) << "node " << n;
        EXPECT_EQ(e.kind, expected.empty() ? FwdKind::kDrop : FwdKind::kForward)
            << "node " << n;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no single-prefix OSPF PEC to check";
}

TEST(OspfConvergence, MatchesDijkstraMetrics) {
  std::mt19937 rng(2024);
  for (int iter = 0; iter < 10; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const Network net = random_ospf_network(rng, 6 + static_cast<int>(rng() % 6));
    expect_outcomes_match_dijkstra(net, 0);
  }
  // The fuzz corpus's pure-OSPF families: random graphs, rings, fat trees.
  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const testsupport::RandomInstance inst = testsupport::make_random_instance(seed);
    if (inst.kind.rfind("ospf-rand", 0) != 0 && inst.kind.rfind("ring", 0) != 0 &&
        inst.kind.rfind("fat-tree-ospf", 0) != 0) {
      continue;
    }
    for (const int k : {0, 1}) {
      SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                   ", k=" + std::to_string(k) + ")");
      expect_outcomes_match_dijkstra(inst.net, k);
    }
    ++instances;
  }
  EXPECT_GT(instances, 0);
  // The topology of examples/ospf_parallel_links.conf without its static
  // route: two links join r0 and r1, and the session costs the cheaper one.
  SCOPED_TRACE("parallel links");
  const ParsedNetwork parallel = parse_network_config(
      "node r0\nnode r1\nnode r2\nnode r3\n"
      "ospf r0 enable\nospf r1 enable\nospf r2 enable\nospf r3 enable\n"
      "link r0 r1 cost 10\nlink r0 r1 cost 1\nlink r0 r2 cost 4\n"
      "link r2 r1 cost 4\nlink r0 r3 cost 1\n"
      "ospf r1 originate 10.1.0.0/16\n");
  for (const int k : {0, 1}) expect_outcomes_match_dijkstra(parallel.net, k);
}

// ---------------------------------------------------------------------------
// Hot-path opt matrix (PR 2): the AdCache advertisement memo and the
// incremental (dirty-set) expand are exploration-*mechanics*, not search
// reductions — with any combination of the two switched on or off, the
// exploration must be bit-identical: same transition/branch/convergence
// counters and the same violations, on the Fig. 6 BGP network and the
// Fig. 9 BGP-DC worst-case workload.
// ---------------------------------------------------------------------------

/// Everything a run observed, for exact cross-matrix comparison.
struct RunFingerprint {
  std::uint64_t states_explored = 0;
  std::uint64_t converged_states = 0;
  std::uint64_t nondet_branches = 0;
  std::uint64_t det_steps = 0;
  std::uint64_t pruned_inconsistent = 0;
  std::uint64_t failure_sets = 0;
  std::multiset<std::string> violations;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint fingerprint(const Network& net, const Policy& policy,
                           VerifyOptions vo, bool ad_cache, bool incremental,
                           const IpAddr* addr = nullptr,
                           SearchEngineKind engine = SearchEngineKind::kDfs) {
  vo.explore.ad_cache = ad_cache;
  vo.explore.incremental_expand = incremental;
  vo.explore.engine_kind = engine;
  vo.explore.find_all_violations = true;
  Verifier verifier(net, vo);
  const VerifyResult r = addr != nullptr ? verifier.verify_address(*addr, policy)
                                         : verifier.verify(policy);
  RunFingerprint fp;
  fp.states_explored = r.total.states_explored;
  fp.converged_states = r.total.converged_states;
  fp.nondet_branches = r.total.nondet_branches;
  fp.det_steps = r.total.det_steps;
  fp.pruned_inconsistent = r.total.pruned_inconsistent;
  fp.failure_sets = r.total.failure_sets;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      fp.violations.insert(rep.pec_str + "|" +
                           std::to_string(v.failures.hash()) + "|" + v.message);
    }
  }
  return fp;
}

void expect_matrix_identical(const Network& net, const Policy& policy,
                             const VerifyOptions& vo,
                             const IpAddr* addr = nullptr,
                             SearchEngineKind engine = SearchEngineKind::kDfs) {
  const RunFingerprint ref = fingerprint(net, policy, vo, true, true, addr, engine);
  EXPECT_GT(ref.states_explored, 0u);
  for (const bool cache : {false, true}) {
    for (const bool incr : {false, true}) {
      if (cache && incr) continue;  // the reference itself
      const RunFingerprint fp =
          fingerprint(net, policy, vo, cache, incr, addr, engine);
      EXPECT_EQ(fp, ref) << "ad_cache=" << cache << " incremental=" << incr
                         << " engine=" << to_string(engine);
    }
  }
}

/// The engine-order-independent projection of a RunFingerprint: frontier
/// engines take a different number of apply() transitions (path replay) and
/// status refreshes than DFS, but must agree on everything else.
RunFingerprint order_independent(RunFingerprint fp) {
  fp.states_explored = 0;
  return fp;
}

/// The paper's Figure 6 BGP network (one AS per node, R1 origin, local-pref
/// maps at R5/R6) — the deterministic-node showcase.
Network figure6_network() {
  Network net;
  const auto add = [&net](const char* name) {
    const NodeId id = net.add_device(name);
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 65000 + id;
    return id;
  };
  const NodeId r1 = add("R1"), r2 = add("R2"), r3 = add("R3"), r4 = add("R4"),
               r5 = add("R5"), r6 = add("R6");
  const auto session = [&net](NodeId a, NodeId b) {
    net.topo.add_link(a, b);
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  };
  session(r1, r2);
  session(r1, r3);
  session(r2, r4);
  session(r2, r5);
  session(r3, r4);
  session(r4, r6);
  session(r5, r6);
  net.device(r1).bgp->originated.push_back(*Prefix::parse("10.0.0.0/16"));
  RouteMapClause high;
  high.action.set_local_pref = 300;
  net.device(r5).bgp->session_with(r2)->import.clauses.push_back(high);
  RouteMapClause low;
  low.action.set_local_pref = 50;
  net.device(r6).bgp->session_with(r5)->import.clauses.push_back(low);
  return net;
}

TEST(HotPathOptMatrix, Figure6BgpIdenticalAcrossMatrix) {
  const Network net = figure6_network();
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore.max_failures = 1;
  vo.explore.lec_failures = false;
  const ReachabilityPolicy policy({5});
  expect_matrix_identical(net, policy, vo);
}

TEST(HotPathOptMatrix, Figure6NaiveModeIdenticalAcrossMatrix) {
  // The reference (full-rescan) expand path must also agree when the §4
  // search optimizations are off — exercises the withdraw/naive branches.
  const Network net = figure6_network();
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore = ExploreOptions::naive();
  vo.explore.budget.max_states = 200000;
  const ReachabilityPolicy policy({5});
  expect_matrix_identical(net, policy, vo);
}

TEST(HotPathOptMatrix, Fig9BgpDcWorstCaseIdenticalAcrossMatrix) {
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(o);
  const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore.det_nodes_bgp = false;
  vo.explore.suppress_equivalent = false;
  vo.explore.budget.max_states = 20000;
  const IpAddr addr = ft.edge_prefixes[0].addr();
  expect_matrix_identical(ft.net, policy, vo, &addr);
}

TEST(HotPathOptMatrix, OspfFailuresIdenticalAcrossMatrix) {
  // OSPF exercises the ECMP merge path of refresh_node under failures.
  std::mt19937 rng(4242);
  for (int iter = 0; iter < 3; ++iter) {
    const Network net = random_ospf_network(rng, 6 + static_cast<int>(rng() % 4));
    // Source: any non-origin device (a source at the origin converges with
    // zero transitions and would make the comparison vacuous).
    NodeId src = 0;
    for (NodeId n = 0; n < net.topo.node_count(); ++n) {
      if (net.device(n).ospf.originated.empty()) {
        src = n;
        break;
      }
    }
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.max_failures = 2;
    const ReachabilityPolicy policy({src});
    expect_matrix_identical(net, policy, vo);
  }
}

TEST(HotPathOptMatrix, OspfLoopFreedomIdenticalAcrossMatrix) {
  // A policy without sources has no §4.2 stop, so with incremental_expand
  // on every phase runs as one SPF-ordered pass; off, it is walked move by
  // move.
  std::mt19937 rng(4243);
  for (int iter = 0; iter < 3; ++iter) {
    const Network net = random_ospf_network(rng, 6 + static_cast<int>(rng() % 4));
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.max_failures = 2;
    const LoopFreedomPolicy policy;
    expect_matrix_identical(net, policy, vo);
  }
}

// ---------------------------------------------------------------------------
// Engine matrix: the search engines against the opt-matrix workloads.
// kSingleExecution and kBfs must each be bit-identical across the hot-path
// (ad-cache × incremental-expand) matrix, and kBfs must agree with kDfs on
// all order-independent counters and verdicts.
// ---------------------------------------------------------------------------

TEST(EngineOptMatrix, SingleExecutionIdenticalAcrossMatrix) {
  // Simulation was previously untested against the opt-matrix workloads:
  // its single execution must also be mechanics-independent.
  const Network net = figure6_network();
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore.max_failures = 1;
  vo.explore.lec_failures = false;
  const ReachabilityPolicy policy({5});
  expect_matrix_identical(net, policy, vo, nullptr,
                          SearchEngineKind::kSingleExecution);
}

TEST(EngineOptMatrix, SingleExecutionIdenticalAcrossMatrixOnFig9Workload) {
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(o);
  const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore.det_nodes_bgp = false;
  vo.explore.suppress_equivalent = false;
  vo.explore.budget.max_states = 20000;
  const IpAddr addr = ft.edge_prefixes[0].addr();
  expect_matrix_identical(ft.net, policy, vo, &addr,
                          SearchEngineKind::kSingleExecution);
}

TEST(EngineOptMatrix, BfsIdenticalAcrossMatrix) {
  // BFS's exploration order depends only on the model's move enumeration,
  // which the hot-path mechanics leave bit-identical — so it must
  // fingerprint identically across the ad-cache × incremental matrix.
  const Network net = figure6_network();
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore.max_failures = 1;
  vo.explore.lec_failures = false;
  const ReachabilityPolicy policy({5});
  expect_matrix_identical(net, policy, vo, nullptr, SearchEngineKind::kBfs);
}

TEST(EngineOptMatrix, BfsMatchesDfsOnOptMatrixWorkloads) {
  // Cross-engine agreement on the uncapped opt-matrix workloads: same
  // verdicts, violations, branch/prune/convergence counters — only the raw
  // transition count (path replay) may differ.
  struct Workload {
    Network net;
    std::unique_ptr<Policy> policy;
    VerifyOptions vo;
  };
  std::vector<Workload> workloads;
  {
    Workload w;
    w.net = figure6_network();
    w.policy = std::make_unique<ReachabilityPolicy>(std::vector<NodeId>{5});
    w.vo.cores = 1;
    w.vo.explore.max_failures = 1;
    w.vo.explore.lec_failures = false;
    workloads.push_back(std::move(w));
  }
  {
    std::mt19937 rng(20260730);
    Workload w;
    w.net = random_ospf_network(rng, 7);
    NodeId src = 0;
    for (NodeId n = 0; n < w.net.topo.node_count(); ++n) {
      if (w.net.device(n).ospf.originated.empty()) {
        src = n;
        break;
      }
    }
    w.policy = std::make_unique<ReachabilityPolicy>(std::vector<NodeId>{src});
    w.vo.cores = 1;
    w.vo.explore.max_failures = 2;
    w.vo.explore.deterministic_nodes = false;  // genuinely branching search
    workloads.push_back(std::move(w));
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const RunFingerprint ref = order_independent(
        fingerprint(w.net, *w.policy, w.vo, true, true, nullptr,
                    SearchEngineKind::kDfs));
    const RunFingerprint fp = order_independent(fingerprint(
        w.net, *w.policy, w.vo, true, true, nullptr, SearchEngineKind::kBfs));
    EXPECT_EQ(fp, ref) << "workload " << i << " engine bfs";
  }
}

TEST(FailureEquivalence, LecVerdictMatchesExhaustive) {
  // LEC failure reduction must not change policy verdicts (it may skip
  // symmetric failure sets, but one representative of each violating class
  // survives).
  std::mt19937 rng(555);
  for (int iter = 0; iter < 6; ++iter) {
    const Network net = random_ospf_network(rng, 5 + static_cast<int>(rng() % 4));
    const NodeId src = 1 + rng() % (net.topo.node_count() - 1);
    for (const int k : {1, 2}) {
      Verdict verdicts[2];
      for (const bool lec : {false, true}) {
        VerifyOptions vo;
        vo.explore.max_failures = k;
        vo.explore.lec_failures = lec;
        Verifier verifier(net, vo);
        const ReachabilityPolicy policy({src});
        verdicts[lec ? 1 : 0] = verifier.verify(policy).verdict;
      }
      EXPECT_EQ(verdicts[0], verdicts[1]) << "iter " << iter << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace plankton
