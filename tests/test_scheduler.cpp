// Dependency graph, SCC condensation, outcome store, and the parallel
// scheduler (paper §3.2). Verifier runs must be bit-identical at every worker
// count: verdicts, violation multisets with their rendered trails, and state
// counts, on the seeded random_net corpus (scaled by PLANKTON_DIFF_SEEDS)
// and on the dedup and cyclic-SCC paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>

#include "core/verifier.hpp"
#include "sched/deps.hpp"
#include "sched/outcome_store.hpp"
#include "sched/work_stealing.hpp"
#include "support/random_net.hpp"
#include "workload/enterprise.hpp"
#include "workload/fat_tree.hpp"

namespace plankton {
namespace {

TEST(Deps, RecursiveStaticCreatesEdge) {
  Network net;
  const NodeId a = net.add_device("a", IpAddr(1, 1, 1, 1));
  const NodeId b = net.add_device("b", IpAddr(2, 2, 2, 2));
  net.topo.add_link(a, b);
  net.device(a).ospf.enabled = true;
  net.device(b).ospf.enabled = true;
  StaticRoute sr;
  sr.dst = *Prefix::parse("172.16.0.0/12");
  sr.via_ip = IpAddr(2, 2, 2, 2);
  net.device(a).statics.push_back(sr);
  const PecSet pecs = compute_pecs(net);
  const PecDependencies deps = compute_dependencies(net, pecs);
  const PecId target = pecs.find(IpAddr(172, 16, 5, 5));
  const PecId loopback = pecs.find(IpAddr(2, 2, 2, 2));
  EXPECT_TRUE(deps.has_cross_pec_deps());
  ASSERT_EQ(deps.depends_on[target].size(), 1u);
  EXPECT_EQ(deps.depends_on[target][0], loopback);
  EXPECT_EQ(deps.dependents[loopback], (std::vector<PecId>{target}));
}

TEST(Deps, SelfLoopDetected) {
  // The paper's observed case: a static route whose next hop lies inside
  // the prefix being matched.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  net.topo.add_link(a, b);
  net.device(a).ospf.enabled = true;
  net.device(b).ospf.enabled = true;
  net.device(b).ospf.originated.push_back(*Prefix::parse("10.1.0.0/16"));
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.0.0.0/8");
  sr.via_ip = IpAddr(10, 1, 0, 1);  // inside 10/8
  net.device(a).statics.push_back(sr);
  const PecSet pecs = compute_pecs(net);
  const PecDependencies deps = compute_dependencies(net, pecs);
  const PecId p = pecs.find(IpAddr(10, 1, 0, 1));
  EXPECT_TRUE(deps.self_loop[p] != 0);
  // Self loops do not create SCCs of size > 1.
  for (const auto& scc : deps.sccs) EXPECT_EQ(scc.size(), 1u);
}

TEST(Deps, ContrivedMutualStaticsFormScc) {
  // The paper's footnote: static for A via IP in B and static for B via IP
  // in A — an SCC larger than one PEC.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  net.topo.add_link(a, b);
  StaticRoute sa;
  sa.dst = *Prefix::parse("10.0.0.0/8");
  sa.via_ip = IpAddr(20, 0, 0, 1);
  net.device(a).statics.push_back(sa);
  StaticRoute sb;
  sb.dst = *Prefix::parse("20.0.0.0/8");
  sb.via_ip = IpAddr(10, 0, 0, 1);
  net.device(b).statics.push_back(sb);
  const PecSet pecs = compute_pecs(net);
  const PecDependencies deps = compute_dependencies(net, pecs);
  const PecId pa = pecs.find(IpAddr(10, 0, 0, 1));
  const PecId pb = pecs.find(IpAddr(20, 0, 0, 1));
  EXPECT_EQ(deps.scc_of[pa], deps.scc_of[pb]) << "mutual deps must share an SCC";
  bool found_big = false;
  for (const auto& scc : deps.sccs) found_big = found_big || scc.size() == 2;
  EXPECT_TRUE(found_big);
}

TEST(Deps, CondensationOrderPutsDependenciesFirst) {
  const Enterprise ent = make_enterprise("II");
  const PecSet pecs = compute_pecs(ent.net);
  const PecDependencies deps = compute_dependencies(ent.net, pecs);
  // Tarjan numbering invariant: every dependency SCC has a smaller id.
  for (std::uint32_t s = 0; s < deps.scc_deps.size(); ++s) {
    for (const std::uint32_t d : deps.scc_deps[s]) {
      EXPECT_LT(d, s) << "dependencies must be numbered before dependents";
    }
  }
}

TEST(OutcomeStoreTest, MatchesByFailureSet) {
  Network net;
  net.add_device("a", IpAddr(1, 1, 1, 1));
  const PecSet pecs = compute_pecs(net);
  OutcomeStore store(net, pecs);
  PecOutcome o1;
  o1.failures = FailureSet(3);
  o1.igp_cost = {0};
  o1.dp.entries.resize(1);
  o1.hash = 111;
  PecOutcome o2 = o1;
  o2.failures.fail(1);
  o2.hash = 222;
  std::vector<PecOutcome> outs;
  outs.push_back(std::move(o1));
  outs.push_back(std::move(o2));
  store.put(0, std::move(outs));

  const std::vector<PecId> deps{0};
  FailureSet none(3);
  auto combos = store.combos(deps, none);
  ASSERT_EQ(combos.size(), 1u);
  FailureSet one(3);
  one.fail(1);
  combos = store.combos(deps, one);
  ASSERT_EQ(combos.size(), 1u);
  FailureSet other(3);
  other.fail(2);
  EXPECT_TRUE(store.combos(deps, other).empty())
      << "no outcome recorded under this failure set";
}

TEST(OutcomeStoreTest, CrossProductOverMultipleDeps) {
  Network net;
  net.add_device("a", IpAddr(1, 1, 1, 1));
  net.add_device("b", IpAddr(2, 2, 2, 2));
  const PecSet pecs = compute_pecs(net);
  OutcomeStore store(net, pecs);
  auto mk = [](std::uint64_t h) {
    PecOutcome o;
    o.failures = FailureSet(1);
    o.igp_cost = {0, 0};
    o.dp.entries.resize(2);
    o.hash = h;
    return o;
  };
  {
    std::vector<PecOutcome> v;
    v.push_back(mk(1));
    v.push_back(mk(2));
    store.put(0, std::move(v));
  }
  {
    std::vector<PecOutcome> v;
    v.push_back(mk(3));
    store.put(1, std::move(v));
  }
  const std::vector<PecId> deps{0, 1};
  const auto combos = store.combos(deps, FailureSet(1));
  EXPECT_EQ(combos.size(), 2u) << "2 x 1 outcome combinations";
  EXPECT_NE(combos[0]->outcome_hash(), combos[1]->outcome_hash());
}

TEST(Scheduler, SupportPecsAreNotPolicyChecked) {
  const Enterprise ent = make_enterprise("VII");
  VerifyOptions vo;
  Verifier v(ent.net, vo);
  // Verify only the DC prefix (reached via recursive statics): its loopback
  // dependencies run as support PECs.
  const ReachabilityPolicy policy({ent.access.front()});
  const VerifyResult r = v.verify_address(IpAddr(10, 200, 0, 1), policy);
  EXPECT_EQ(r.pecs_verified, 1u);
  EXPECT_GT(r.pecs_support, 0u);
  for (const auto& rep : r.reports) {
    EXPECT_NE(rep.pec_str.find("("), std::string::npos);
  }
}

TEST(Scheduler, ParallelAndSerialAgreeOnEnterprise) {
  const Enterprise ent = make_enterprise("V");
  const LoopFreedomPolicy policy;
  VerifyOptions serial;
  serial.cores = 1;
  VerifyOptions parallel;
  parallel.cores = 8;
  const VerifyResult a = Verifier(ent.net, serial).verify(policy);
  const VerifyResult b = Verifier(ent.net, parallel).verify(policy);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.pecs_verified, b.pecs_verified);
}

TEST(WorkStealing, StressDependencyOrderAcrossWorkerCounts) {
  // A layered DAG wide enough to keep 8 workers busy: 25 tasks per layer,
  // 8 layers; each task depends on two tasks of the previous layer. Every
  // completion asserts that its dependencies completed first.
  constexpr std::size_t kLayers = 8;
  constexpr std::size_t kWidth = 25;
  constexpr std::size_t kTasks = kLayers * kWidth;
  sched::TaskGraph graph;
  graph.dependents.resize(kTasks);
  graph.waiting_on.assign(kTasks, 0);
  for (std::size_t layer = 1; layer < kLayers; ++layer) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      const std::size_t task = layer * kWidth + i;
      const std::size_t d1 = (layer - 1) * kWidth + i;
      const std::size_t d2 = (layer - 1) * kWidth + (i + 1) % kWidth;
      graph.dependents[d1].push_back(task);
      graph.dependents[d2].push_back(task);
      graph.waiting_on[task] = 2;
    }
  }

  for (const int workers : {1, 4, 8}) {
    std::mutex mu;
    std::vector<std::uint8_t> done(kTasks, 0);
    std::atomic<std::size_t> executions{0};
    bool order_ok = true;
    sched::run_task_graph(workers, graph, [&](sched::TaskContext& ctx) {
      const std::size_t task = ctx.task();
      ASSERT_GE(ctx.worker(), 0);
      ASSERT_LT(ctx.worker(), workers);
      executions.fetch_add(1);
      std::scoped_lock lock(mu);
      if (task >= kWidth) {
        const std::size_t layer = task / kWidth;
        const std::size_t i = task % kWidth;
        const std::size_t d1 = (layer - 1) * kWidth + i;
        const std::size_t d2 = (layer - 1) * kWidth + (i + 1) % kWidth;
        order_ok = order_ok && done[d1] && done[d2];
      }
      done[task] = 1;
    });
    EXPECT_EQ(executions.load(), kTasks) << "workers=" << workers;
    EXPECT_TRUE(order_ok) << "ran a task before its dependencies, workers="
                          << workers;
    for (std::size_t t = 0; t < kTasks; ++t) {
      ASSERT_TRUE(done[t]) << "task " << t << " never ran";
    }
  }
}

TEST(WorkStealing, OneWorkerFollowsTheStackRuleOnTheCallingThread) {
  // One worker runs the work-stealing loop on the calling thread, in a fixed
  // order: ready tasks lowest index first; after each job, its spawned
  // subtasks and then the dependents it released are pushed on one stack,
  // popped last in, first out. A reference simulation of that rule must give
  // the same order on random DAGs whose tasks spawn nested subtasks. Jobs
  // are labelled: task t is t, spawned jobs get n, n+1, ... in spawn order.
  // Depth 0 (static) jobs spawn 0-2 subtasks, depth 1 jobs spawn label % 2,
  // depth 2 jobs none.
  const std::thread::id caller = std::this_thread::get_id();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + rng() % 30;
    std::vector<std::size_t> rank(n);  // a random topological order
    std::iota(rank.begin(), rank.end(), std::size_t{0});
    std::shuffle(rank.begin(), rank.end(), rng);
    sched::TaskGraph graph;
    graph.dependents.resize(n);
    graph.waiting_on.assign(n, 0);
    std::vector<int> static_fanout(n);
    for (std::size_t i = 0; i < n; ++i) {
      static_fanout[i] = static_cast<int>(rng() % 3);
      for (std::size_t j = 0; j < n; ++j) {
        if (rank[i] < rank[j] && rng() % 4 == 0) {
          graph.dependents[i].push_back(j);
          ++graph.waiting_on[j];
        }
      }
    }
    const auto fanout = [&](std::size_t label, int depth) {
      if (depth == 0) return static_fanout[label];
      return depth == 1 ? static_cast<int>(label % 2) : 0;
    };

    std::vector<std::size_t> order;
    std::size_t next_label = n;
    bool on_caller = true;
    std::function<void(sched::TaskContext&, std::size_t, int)> run_job =
        [&](sched::TaskContext& ctx, std::size_t label, int depth) {
          on_caller = on_caller && std::this_thread::get_id() == caller;
          order.push_back(label);
          for (int c = 0; c < fanout(label, depth); ++c) {
            const std::size_t child = next_label++;
            ctx.spawn([&run_job, child, depth](sched::TaskContext& cctx) {
              run_job(cctx, child, depth + 1);
            });
          }
        };
    sched::run_task_graph(1, graph, [&](sched::TaskContext& ctx) {
      run_job(ctx, ctx.task(), 0);
    });

    struct Job {
      std::size_t label;
      int depth;
    };
    std::vector<std::size_t> expected;
    std::vector<Job> stack;
    std::vector<std::size_t> waiting = graph.waiting_on;
    for (std::size_t i = n; i > 0; --i) {
      if (waiting[i - 1] == 0) stack.push_back({i - 1, 0});
    }
    std::size_t next = n;
    while (!stack.empty()) {
      const Job job = stack.back();
      stack.pop_back();
      expected.push_back(job.label);
      for (int c = 0; c < fanout(job.label, job.depth); ++c) {
        stack.push_back({next++, job.depth + 1});
      }
      if (job.depth != 0) continue;
      for (const std::size_t d : graph.dependents[job.label]) {
        if (--waiting[d] == 0) stack.push_back({d, 0});
      }
    }
    EXPECT_EQ(order, expected) << "seed " << seed;
    EXPECT_TRUE(on_caller) << "seed " << seed << ": a job ran off the caller";
  }
}

TEST(WorkStealing, VerifierResultsDeterministicAcrossWorkerCounts) {
  // With find_all_violations (no early stop) every PEC is fully explored, so
  // reports and aggregate stats must be identical for 1, 4, and 8 workers.
  const Enterprise ent = make_enterprise("VII");
  const LoopFreedomPolicy policy;
  struct Snapshot {
    std::size_t verified, support;
    std::uint64_t states;
    std::vector<std::pair<PecId, Verdict>> reports;
  };
  std::vector<Snapshot> snaps;
  for (const int workers : {1, 4, 8}) {
    VerifyOptions vo;
    vo.cores = workers;
    vo.explore.find_all_violations = true;
    const VerifyResult r = Verifier(ent.net, vo).verify(policy);
    Snapshot s;
    s.verified = r.pecs_verified;
    s.support = r.pecs_support;
    s.states = r.total.states_explored;
    for (const auto& rep : r.reports) {
      s.reports.emplace_back(rep.pec, rep.result.verdict());
    }
    snaps.push_back(std::move(s));
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].verified, snaps[0].verified) << "config " << i;
    EXPECT_EQ(snaps[i].support, snaps[0].support) << "config " << i;
    EXPECT_EQ(snaps[i].states, snaps[0].states) << "config " << i;
    EXPECT_EQ(snaps[i].reports, snaps[0].reports) << "config " << i;
  }
}

// ---------------------------------------------------------------------------
// Worker-count determinism of whole Verifier runs
// ---------------------------------------------------------------------------

/// Everything a run must reproduce at any worker count: verdict, violation
/// multiset (message, failure set, and rendered trail), and the aggregate
/// state counters.
struct Fingerprint {
  Verdict verdict = Verdict::kHolds;
  std::size_t pecs_verified = 0;
  std::size_t pecs_support = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t states_stored = 0;
  std::uint64_t converged_states = 0;
  std::uint64_t failure_sets = 0;
  std::uint64_t policy_checks = 0;
  std::multiset<std::string> violations;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const VerifyResult& r) {
  Fingerprint fp;
  fp.verdict = r.verdict;
  fp.pecs_verified = r.pecs_verified;
  fp.pecs_support = r.pecs_support;
  fp.states_explored = r.total.states_explored;
  fp.states_stored = r.total.states_stored;
  fp.converged_states = r.total.converged_states;
  fp.failure_sets = r.total.failure_sets;
  fp.policy_checks = r.total.policy_checks;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      fp.violations.insert(rep.pec_str + "|" +
                           std::to_string(v.failures.hash()) + "|" + v.message +
                           "|" + v.trail_text);
    }
  }
  return fp;
}

VerifyResult run_verify(const Network& net, const Policy& policy,
                        VerifyOptions vo, int cores) {
  vo.cores = cores;
  return Verifier(net, vo).verify(policy);
}

TEST(WorkStealing, RandomCorpusMatchesAcrossWorkerCounts) {
  // Corpus scaling: PLANKTON_DIFF_SEEDS drives the differential harness at
  // ~10x this suite's default (each instance here is 6 full verifications).
  int count = 18;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    count = std::max(6, std::atoi(v) / 10);
  }
  for (int seed = 1; seed <= count; ++seed) {
    const testsupport::RandomInstance inst =
        testsupport::make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", k=" + std::to_string(inst.max_failures) + ", policy " +
                 inst.policy->name() + ")");
    for (const SearchEngineKind engine :
         {SearchEngineKind::kDfs, SearchEngineKind::kBfs}) {
      VerifyOptions vo;
      vo.explore = inst.explore;
      vo.explore.engine_kind = engine;
      vo.explore.find_all_violations = true;  // no early-stop nondeterminism
      vo.explore.suppress_equivalent = false;
      const Fingerprint ref =
          fingerprint(run_verify(inst.net, *inst.policy, vo, 1));
      for (const int cores : {2, 4}) {
        EXPECT_EQ(fingerprint(run_verify(inst.net, *inst.policy, vo, cores)),
                  ref)
            << "cores=" << cores << " engine=" << to_string(engine)
            << " diverged from cores=1";
      }
    }
  }
}

TEST(WorkStealing, TranslatedVerdictsMatchAcrossWorkerCounts) {
  // Fat-tree all-PEC loop check: one class, so the run explores one PEC and
  // translates the others' verdicts. Translated stats stay out of the
  // aggregate at any worker count.
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const VerifyResult ref = run_verify(ft.net, policy, vo, 1);
  EXPECT_EQ(ref.pecs_deduped, ft.edges.size() - 1);
  for (const int cores : {1, 4}) {
    const VerifyResult r = run_verify(ft.net, policy, vo, cores);
    EXPECT_EQ(fingerprint(r), fingerprint(ref)) << "cores=" << cores;
    EXPECT_EQ(r.pecs_deduped, ref.pecs_deduped) << "cores=" << cores;
    std::size_t translated = 0;
    for (const auto& rep : r.reports) {
      if (rep.translated_from != kNoPec) ++translated;
    }
    EXPECT_EQ(translated, ft.edges.size() - 1) << "cores=" << cores;
  }
}

TEST(WorkStealing, DedupRerunsMatchAcrossWorkerCounts) {
  // Class members whose representative is not a clean hold re-run natively
  // as spawned, stealable subtasks; each native member report counts as one
  // re-run. The counters below are pinned, and must agree at 1 and 4 cores.
  // The second arm re-runs members of a budget-tripped representative.
  struct View {
    Verdict verdict = Verdict::kHolds;
    std::multiset<std::string> violations;
    std::size_t pecs_deduped = 0;
    std::size_t dedup_reruns = 0;
    std::size_t pecs_inconclusive = 0;
    std::uint64_t states_explored = 0;
    std::size_t translated = 0;

    bool operator==(const View&) const = default;
  };
  const auto view = [](const VerifyResult& r) {
    View v;
    v.verdict = r.verdict;
    v.violations = fingerprint(r).violations;
    v.pecs_deduped = r.pecs_deduped;
    v.dedup_reruns = r.dedup_reruns;
    v.pecs_inconclusive = r.pecs_inconclusive;
    v.states_explored = r.total.states_explored;
    for (const auto& rep : r.reports) {
      if (rep.translated_from != kNoPec) ++v.translated;
    }
    return v;
  };
  struct Arm {
    const char* name;
    FatTreeOptions::CoreStatics statics;
    std::uint64_t max_states;
    std::size_t classes, reruns, violations, inconclusive;
    std::uint64_t states;
  };
  const Arm arms[] = {
      {"broken statics, find-all", FatTreeOptions::CoreStatics::kBroken, 0,
       1, 17, 18, 0, 792},
      {"matching statics, 5-state budget",
       FatTreeOptions::CoreStatics::kMatching, 5, 1, 17, 0, 18, 108},
  };
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    FatTreeOptions o;
    o.k = 6;
    o.statics = arm.statics;
    const FatTree ft = make_fat_tree(o);
    const LoopFreedomPolicy policy;
    VerifyOptions vo;
    vo.explore.find_all_violations = true;
    vo.explore.budget.max_states = arm.max_states;
    const VerifyResult ref = run_verify(ft.net, policy, vo, 1);
    EXPECT_EQ(ref.pec_classes, arm.classes);
    EXPECT_EQ(ref.dedup_reruns, arm.reruns);
    EXPECT_EQ(fingerprint(ref).violations.size(), arm.violations);
    EXPECT_EQ(ref.pecs_inconclusive, arm.inconclusive);
    EXPECT_EQ(ref.total.states_explored, arm.states);
    EXPECT_TRUE(view(run_verify(ft.net, policy, vo, 4)) == view(ref))
        << "cores=4";
  }
}

TEST(WorkStealing, CyclicSccTaskMatchesAcrossWorkerCounts) {
  // The paper's footnote case: mutual recursive statics form a PEC SCC of
  // size 2, which runs as ONE multi-PEC task. Under the current prototype
  // semantics both mates degenerate identically (each skips exploration
  // because its mate's outcomes cannot exist yet — Explorer's
  // ups.empty() -> kContinue); this pins that behaviour, mid-task outcome
  // publication and the mate-decrement replay of the eviction counters
  // included, at every worker count. If SCC semantics ever improve
  // (fixpoint iteration), this is the test that must keep passing.
  //
  // Soundness: the mates explored without each other's outcomes, so the run
  // is an approximation, not a proof. The policy holds on every state the
  // approximation reaches, yet the run may not report kHolds; the
  // approximated PECs are reported non-exhaustive instead.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  const NodeId c = net.add_device("c");
  net.topo.add_link(a, b);
  net.topo.add_link(b, c);
  for (const NodeId n : {a, b, c}) net.device(n).ospf.enabled = true;
  net.device(a).ospf.originated.push_back(*Prefix::parse("10.0.0.0/16"));
  net.device(c).ospf.originated.push_back(*Prefix::parse("20.0.0.0/16"));
  StaticRoute sa;  // a: shadow half of c's space, via an IP inside a's own
  sa.dst = *Prefix::parse("20.0.0.0/17");
  sa.via_ip = IpAddr(10, 0, 0, 1);
  net.device(a).statics.push_back(sa);
  StaticRoute sc;  // c: the mirror image
  sc.dst = *Prefix::parse("10.0.0.0/17");
  sc.via_ip = IpAddr(20, 0, 0, 1);
  net.device(c).statics.push_back(sc);

  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const VerifyResult ref = run_verify(net, policy, vo, 1);
  EXPECT_TRUE(ref.unsupported_scc) << "workload must exercise a >1-PEC SCC";
  EXPECT_GT(fingerprint(ref).converged_states, 0u);
  for (const int cores : {1, 4}) {
    const VerifyResult r = run_verify(net, policy, vo, cores);
    EXPECT_EQ(fingerprint(r), fingerprint(ref)) << "cores=" << cores;
    EXPECT_NE(r.verdict, Verdict::kHolds)
        << "approximated cyclic SCC reported as a hold, cores=" << cores;
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << "cores=" << cores;
    EXPECT_FALSE(r.exhaustive) << "cores=" << cores;
    EXPECT_GE(r.pecs_inconclusive, 2u) << "both mates, cores=" << cores;
  }
}

TEST(SchedulerSpawn, DynamicSubtasksAllRunAcrossWorkerCounts) {
  // Spawn-capable bodies inject dynamic subtasks mid-run: every spawned job —
  // including nested spawns from dynamic tasks — must run before
  // run_task_graph returns, at any worker count.
  constexpr std::size_t kStatic = 6;
  constexpr int kChildren = 8;
  sched::TaskGraph graph;
  graph.dependents.resize(kStatic);
  graph.waiting_on.assign(kStatic, 0);
  for (std::size_t t = 1; t < kStatic; ++t) {
    graph.dependents[t - 1].push_back(t);  // a chain, so spawns interleave
    graph.waiting_on[t] = 1;
  }

  for (const int workers : {1, 4}) {
    std::atomic<int> children{0};
    std::atomic<int> grandchildren{0};
    std::atomic<bool> ids_ok{true};
    sched::run_task_graph(workers, graph, [&](sched::TaskContext& ctx) {
      if (ctx.task() == sched::kDynamicTask) return;  // child body below
      if (ctx.worker() < 0 || ctx.worker() >= workers) ids_ok = false;
      for (int c = 0; c < kChildren; ++c) {
        ctx.spawn([&](sched::TaskContext& child) {
          if (child.task() != sched::kDynamicTask) ids_ok = false;
          children.fetch_add(1);
          child.spawn([&](sched::TaskContext& grand) {
            if (grand.task() != sched::kDynamicTask) ids_ok = false;
            grandchildren.fetch_add(1);
          });
        });
      }
    });
    EXPECT_EQ(children.load(), static_cast<int>(kStatic) * kChildren)
        << "workers=" << workers;
    EXPECT_EQ(grandchildren.load(), static_cast<int>(kStatic) * kChildren)
        << "workers=" << workers;
    EXPECT_TRUE(ids_ok.load());
  }
}

TEST(SchedulerSpawn, SpawnedWorkIsStolenByIdleWorkers) {
  // One static task fans out many slow-ish subtasks; with several workers at
  // least two distinct workers must end up executing them (the whole point
  // of making intra-PEC work splittable).
  sched::TaskGraph graph;
  graph.dependents.resize(1);
  graph.waiting_on.assign(1, 0);
  std::mutex mu;
  std::set<int> executed_by;
  sched::run_task_graph(
      4, graph, [&](sched::TaskContext& ctx) {
        if (ctx.task() == sched::kDynamicTask) return;
        for (int c = 0; c < 64; ++c) {
          ctx.spawn([&](sched::TaskContext& child) {
            {
              std::scoped_lock lock(mu);
              executed_by.insert(child.worker());
            }
            // Enough work that the spawner alone cannot drain the queue
            // before a thief wakes up.
            volatile std::uint64_t x = 0;
            for (int i = 0; i < 200000; ++i) x = x + static_cast<std::uint64_t>(i);
          });
        }
      });
  EXPECT_GE(executed_by.size(), 2u)
      << "no idle worker ever stole a spawned subtask";
}

TEST(SchedulerSpawn, SpawnUnderContentionSeesCompletedDependencies) {
  // Known gap closed: the differential harness only reaches spawn() from
  // single-task searches, never while ready-counters are being decremented
  // by concurrent completions. Here dynamically spawned subtasks carry
  // cross-PEC dependencies — each static task of a layered DAG publishes a
  // value derived from its two dependencies' values, then fans out children
  // that re-read those dependency slots while other workers complete tasks,
  // release dependents, and steal the children. A child observing an
  // unwritten dependency slot means a task (or its spawned work) ran before
  // the counter release happened-before it.
  constexpr std::size_t kLayers = 6;
  constexpr std::size_t kWidth = 12;
  constexpr std::size_t kTasks = kLayers * kWidth;
  constexpr int kChildren = 6;
  sched::TaskGraph graph;
  graph.dependents.resize(kTasks);
  graph.waiting_on.assign(kTasks, 0);
  const auto deps_of = [](std::size_t task) {
    const std::size_t layer = task / kWidth;
    const std::size_t i = task % kWidth;
    return std::pair<std::size_t, std::size_t>{
        (layer - 1) * kWidth + i, (layer - 1) * kWidth + (i + 1) % kWidth};
  };
  for (std::size_t task = kWidth; task < kTasks; ++task) {
    const auto [d1, d2] = deps_of(task);
    graph.dependents[d1].push_back(task);
    graph.dependents[d2].push_back(task);
    graph.waiting_on[task] = 2;
  }

  std::vector<std::atomic<std::uint64_t>> value(kTasks);  // 0 = unwritten
  for (const int workers : {1, 4, 8}) {
    for (auto& v : value) v.store(0);
    std::atomic<std::size_t> child_runs{0};
    std::atomic<bool> deps_visible{true};
    sched::run_task_graph(
        workers, graph, [&](sched::TaskContext& ctx) {
          if (ctx.task() == sched::kDynamicTask) return;
          const std::size_t task = ctx.task();
          std::uint64_t v = 1 + task;
          if (task >= kWidth) {
            const auto [d1, d2] = deps_of(task);
            const std::uint64_t a = value[d1].load(std::memory_order_acquire);
            const std::uint64_t b = value[d2].load(std::memory_order_acquire);
            if (a == 0 || b == 0) deps_visible = false;
            v += a + b;
          }
          value[task].store(v, std::memory_order_release);
          for (int c = 0; c < kChildren; ++c) {
            ctx.spawn([&, task](sched::TaskContext&) {
              child_runs.fetch_add(1);
              if (task >= kWidth) {
                // The child inherits its spawner's cross-PEC dependencies:
                // wherever it gets stolen to, the dependency results must
                // already be visible there.
                const auto [d1, d2] = deps_of(task);
                if (value[d1].load(std::memory_order_acquire) == 0 ||
                    value[d2].load(std::memory_order_acquire) == 0) {
                  deps_visible = false;
                }
              }
            });
          }
        });
    EXPECT_EQ(child_runs.load(), kTasks * kChildren)
        << "workers=" << workers;
    EXPECT_TRUE(deps_visible.load())
        << "workers=" << workers
        << ": a spawned subtask ran before its dependencies' results "
           "were visible";
    for (std::size_t t = 0; t < kTasks; ++t) {
      ASSERT_NE(value[t].load(), 0u) << "task " << t << " never ran";
    }
  }
}

TEST(Scheduler, WallLimitStopsGracefully) {
  const Enterprise ent = make_enterprise("III");
  VerifyOptions vo;
  vo.explore.max_failures = 2;  // expensive
  vo.explore.budget.deadline = std::chrono::milliseconds(30);
  Verifier v(ent.net, vo);
  const LoopFreedomPolicy policy;
  const VerifyResult r = v.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kInconclusive);
  EXPECT_EQ(r.budget_tripped, BudgetKind::kDeadline);
}

}  // namespace
}  // namespace plankton
