// Resource governance (checker/budget.hpp): budget taxonomy, sound
// kInconclusive verdicts, deterministic trip points, and deadline
// arithmetic.
//
// The headline guarantees under test:
//   · a tripped budget (deadline / states / memory) degrades a would-be hold
//     to Verdict::kInconclusive — NEVER to a spurious kHolds — on every
//     engine × worker-count combination;
//   · state- and memory-budget trips are deterministic: the same budget on
//     the same workload twice yields bit-identical partial stats and the
//     identical kInconclusive report (the budget-determinism satellite),
//     and a state cap stops an SPF-ordered pass where the move-by-move walk
//     stops;
//   · a deadline past the steady clock's range never trips.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/verifier.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

/// Everything the budget-determinism satellite calls bit-identical: verdict
/// taxonomy fields, the partial-exploration counters, and the violation
/// multiset.
struct Fingerprint {
  Verdict verdict = Verdict::kHolds;
  BudgetKind budget_tripped = BudgetKind::kNone;
  bool exhaustive = true;
  std::size_t pecs_inconclusive = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t states_stored = 0;
  std::uint64_t converged_states = 0;
  std::uint64_t policy_checks = 0;
  std::multiset<std::string> violations;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.verdict == b.verdict && a.budget_tripped == b.budget_tripped &&
           a.exhaustive == b.exhaustive &&
           a.pecs_inconclusive == b.pecs_inconclusive &&
           a.states_explored == b.states_explored &&
           a.states_stored == b.states_stored &&
           a.converged_states == b.converged_states &&
           a.policy_checks == b.policy_checks && a.violations == b.violations;
  }
};

Fingerprint fingerprint(const VerifyResult& r) {
  Fingerprint fp;
  fp.verdict = r.verdict;
  fp.budget_tripped = r.budget_tripped;
  fp.exhaustive = r.exhaustive;
  fp.pecs_inconclusive = r.pecs_inconclusive;
  fp.states_explored = r.total.states_explored;
  fp.states_stored = r.total.states_stored;
  fp.converged_states = r.total.converged_states;
  fp.policy_checks = r.total.policy_checks;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      fp.violations.insert(rep.pec_str + "|" +
                           std::to_string(v.failures.hash()) + "|" + v.message);
    }
  }
  return fp;
}

/// The fig9 worst-case BGP DC workload (bench/perf_smoke.cpp): a single PEC
/// whose uncapped exploration runs for hundreds of milliseconds and stores
/// megabytes — big enough that every budget axis genuinely trips.
struct WorstCase {
  FatTree ft;
  WaypointPolicy policy;
  IpAddr addr;

  WorstCase()
      : ft(make_fat_tree([] {
          FatTreeOptions o;
          o.k = 4;
          o.routing = FatTreeOptions::Routing::kBgpRfc7938;
          return o;
        }())),
        policy({ft.edges.back()}, ft.aggs),
        addr(ft.edge_prefixes[0].addr()) {}

  [[nodiscard]] VerifyResult run(VerifyOptions vo) const {
    return run(vo, policy);
  }
  [[nodiscard]] VerifyResult run(VerifyOptions vo, const Policy& p) const {
    vo.explore.det_nodes_bgp = false;
    vo.explore.suppress_equivalent = false;
    Verifier verifier(ft.net, vo);
    return verifier.verify_address(addr, p);
  }
};

// ---------------------------------------------------------------------------
// Verdict taxonomy
// ---------------------------------------------------------------------------

TEST(BudgetTaxonomy, VerdictClassification) {
  // Every row of classify(): a violation is sound even from a partial
  // search, so it always wins; a tripped budget or a non-exhaustive search
  // (lossy visited store, approximated cyclic SCC) is a coverage claim, not
  // a proof; only a completed exhaustive search holds.
  using enum BudgetKind;
  constexpr Verdict H = Verdict::kHolds;
  constexpr Verdict V = Verdict::kViolated;
  constexpr Verdict I = Verdict::kInconclusive;
  struct Row {
    bool violated;
    BudgetKind tripped;
    bool exhaustive;
    Verdict want;
  };
  constexpr Row kRows[] = {
      {false, kNone, true, H},     {false, kNone, false, I},
      {false, kDeadline, true, I}, {false, kDeadline, false, I},
      {false, kStates, true, I},   {false, kStates, false, I},
      {false, kMemory, true, I},   {false, kMemory, false, I},
      {true, kNone, true, V},      {true, kNone, false, V},
      {true, kDeadline, true, V},  {true, kDeadline, false, V},
      {true, kStates, true, V},    {true, kStates, false, V},
      {true, kMemory, true, V},    {true, kMemory, false, V},
  };
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string("violated=") + (row.violated ? "1" : "0") +
                 " tripped=" + to_string(row.tripped) +
                 " exhaustive=" + (row.exhaustive ? "1" : "0"));
    EXPECT_EQ(classify(row.violated, row.tripped, row.exhaustive), row.want);
    // ExploreResult::verdict() is the same rule over its own fields.
    ExploreResult r;
    if (row.violated) r.violations.emplace_back();
    r.budget_tripped = row.tripped;
    r.exhaustive = row.exhaustive;
    EXPECT_EQ(r.verdict(), row.want);
  }

  EXPECT_STREQ(to_string(BudgetKind::kNone), "none");
  EXPECT_STREQ(to_string(BudgetKind::kDeadline), "deadline");
  EXPECT_STREQ(to_string(BudgetKind::kStates), "states");
  EXPECT_STREQ(to_string(BudgetKind::kMemory), "memory");
  EXPECT_STREQ(to_string(Verdict::kHolds), "holds");
  EXPECT_STREQ(to_string(Verdict::kViolated), "violated");
  EXPECT_STREQ(to_string(Verdict::kInconclusive), "inconclusive");
  EXPECT_STREQ(to_string(Verdict::kError), "error");
}

TEST(BudgetTaxonomy, UnbudgetedRunIsExhaustiveHold) {
  const WorstCase wc;
  VerifyOptions vo;
  vo.explore.budget.max_states = 50000;  // under the ~180k full run: trips
  const VerifyResult capped = wc.run(vo);
  EXPECT_EQ(capped.verdict, Verdict::kInconclusive)
      << "a state-cap stop must not report a hold";

  VerifyOptions unbudgeted;
  EXPECT_FALSE(unbudgeted.explore.budget.any());
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  Verifier verifier(ft.net, unbudgeted);
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.budget_tripped, BudgetKind::kNone);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.pecs_inconclusive, 0u);
}

// ---------------------------------------------------------------------------
// Budget determinism (same budget twice => identical partial stats and the
// identical kInconclusive report)
// ---------------------------------------------------------------------------

TEST(BudgetDeterminism, StateBudgetTripsIdenticallyTwice) {
  const WorstCase wc;
  VerifyOptions vo;
  vo.explore.budget.max_states = 5000;
  const VerifyResult first = wc.run(vo);
  ASSERT_EQ(first.verdict, Verdict::kInconclusive);
  EXPECT_EQ(first.budget_tripped, BudgetKind::kStates);
  EXPECT_EQ(first.pecs_inconclusive, 1u);
  EXPECT_TRUE(first.exhaustive)
      << "a state-cap stop with the exact backend is partial, not lossy";

  const VerifyResult second = wc.run(vo);
  EXPECT_EQ(fingerprint(first), fingerprint(second))
      << "the same state budget on the same workload must stop at the "
         "identical partial exploration";
}

TEST(BudgetDeterminism, MemoryBudgetTripsIdenticallyTwice) {
  const WorstCase wc;
  VerifyOptions vo;
  vo.explore.budget.max_bytes = 2u << 20;  // the uncapped run stores ~10 MB
  const VerifyResult first = wc.run(vo);
  ASSERT_EQ(first.verdict, Verdict::kInconclusive);
  EXPECT_EQ(first.budget_tripped, BudgetKind::kMemory);
  EXPECT_TRUE(first.exhaustive) << "a memory-cap stop with the exact store "
                                   "is partial, not lossy";
  EXPECT_GT(first.total.budget_checks, 0u);

  const VerifyResult second = wc.run(vo);
  EXPECT_EQ(fingerprint(first), fingerprint(second))
      << "memory budgets check a deterministic model-byte count, so the "
         "trip point must reproduce";
}

TEST(BudgetDeterminism, DeadlineClassifiesIdenticallyAcrossRuns) {
  // Wall-clock trips are inherently timing-dependent, so only the verdict
  // classification is pinned: with a deadline 20x under the unbudgeted
  // ~500 ms runtime, both runs must come back inconclusive-on-deadline with
  // no spurious violation (the partial stats legitimately differ).
  const WorstCase wc;
  VerifyOptions vo;
  vo.explore.budget.deadline = std::chrono::milliseconds(25);
  for (int run = 0; run < 2; ++run) {
    const VerifyResult r = wc.run(vo);
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << "run " << run;
    EXPECT_EQ(r.budget_tripped, BudgetKind::kDeadline) << "run " << run;
  }
}

TEST(BudgetDeterminism, StateCapStopsTheSpfPassWhereTheWalkStops) {
  // Loop freedom under at most one failure on one AS1755 loopback PEC: every
  // phase is SPF-ordered, so with incremental_expand on each failure set's
  // phase runs as one pass that counts its states without a visited store,
  // and with it off the DFS engine walks the same path move by move through
  // the exact store (docs/architecture.md "SPF-ordered phases"). Each cap
  // must stop both at the same state, with the same counts and verdict. The
  // explored counts are pinned too: the state cap trips one stored state
  // past the cap, and each failure set's root is stored without a move.
  const AsTopo topo = make_as_topo("AS1755");
  const PecSet pecs = compute_pecs(topo.net);
  const Pec& pec = pecs.pecs[pecs.find(topo.loopbacks[86].addr())];
  const LoopFreedomPolicy policy;
  struct Row {
    std::uint64_t cap;
    std::uint64_t explored;
  };
  for (const Row row : {Row{1, 2}, Row{7, 8}, Row{50, 51}, Row{400, 397},
                        Row{3000, 2967}}) {
    SCOPED_TRACE("cap " + std::to_string(row.cap));
    ExploreResult runs[2];
    for (const bool pass : {true, false}) {
      ExploreOptions opts;
      opts.max_failures = 1;
      opts.incremental_expand = pass;
      opts.budget.max_states = row.cap;
      Explorer ex(topo.net, pec, make_tasks(topo.net, pec), policy, opts);
      runs[pass ? 0 : 1] = ex.run();
    }
    const ExploreResult& a = runs[0];
    const ExploreResult& b = runs[1];
    EXPECT_EQ(a.stats.states_explored, row.explored);
    EXPECT_EQ(b.stats.states_explored, row.explored);
    EXPECT_EQ(a.stats.states_stored, row.cap + 1);
    EXPECT_EQ(b.stats.states_stored, row.cap + 1);
    EXPECT_EQ(a.stats.dirty_refreshes, 0u) << "the pass refreshes no status";
    EXPECT_GT(b.stats.dirty_refreshes, 0u);
    EXPECT_EQ(a.budget_tripped, BudgetKind::kStates);
    EXPECT_EQ(b.budget_tripped, BudgetKind::kStates);
    EXPECT_EQ(a.verdict(), Verdict::kInconclusive);
    EXPECT_EQ(b.verdict(), Verdict::kInconclusive);
  }
}

// ---------------------------------------------------------------------------
// Soundness: exhaustion is never reported as a hold, on every engine x
// worker-count combination (the acceptance matrix)
// ---------------------------------------------------------------------------

TEST(BudgetSoundness, DeadlineNeverReportsHoldAcrossEnginesAndCores) {
  const WorstCase wc;
  for (const SearchEngineKind engine :
       {SearchEngineKind::kDfs, SearchEngineKind::kBfs}) {
    for (const int cores : {1, 4}) {
      VerifyOptions vo;
      vo.cores = cores;
      vo.explore.engine_kind = engine;
      vo.explore.budget.deadline = std::chrono::milliseconds(25);
      const VerifyResult r = wc.run(vo);
      EXPECT_NE(r.verdict, Verdict::kHolds)
          << "engine=" << to_string(engine) << " cores=" << cores
          << ": a deadline-capped partial search reported a hold";
      EXPECT_EQ(r.verdict, Verdict::kInconclusive)
          << "engine=" << to_string(engine) << " cores=" << cores;
      EXPECT_EQ(r.budget_tripped, BudgetKind::kDeadline)
          << "engine=" << to_string(engine) << " cores=" << cores;
    }
  }
}

TEST(BudgetSoundness, MemoryBudgetCountsTheBfsFrontier) {
  // BFS's largest structure is its frontier: the path arena and the pending
  // queue. The model-memory rule counts it, so a byte budget halfway
  // between DFS's and BFS's footprint on the same capped state set (the
  // fig_engine_matrix bgp_dc/K=4 row) stops BFS on memory while DFS still
  // reaches the state cap.
  const WorstCase wc;
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore.por = false;
  vo.explore.budget.max_states = 50000;
  VerifyOptions dfs = vo;
  VerifyOptions bfs = vo;
  bfs.explore.engine_kind = SearchEngineKind::kBfs;
  const VerifyResult dfs_free = wc.run(dfs);
  const VerifyResult bfs_free = wc.run(bfs);
  ASSERT_EQ(dfs_free.budget_tripped, BudgetKind::kStates);
  ASSERT_EQ(bfs_free.budget_tripped, BudgetKind::kStates);
  const std::size_t dfs_bytes = dfs_free.total.model_bytes();
  const std::size_t bfs_bytes = bfs_free.total.model_bytes();
  // Every pending state is an arena node holding its move, so BFS holds at
  // least one SearchMove per pending state on top of what DFS holds.
  ASSERT_GE(bfs_bytes,
            dfs_bytes + bfs_free.total.frontier_peak * sizeof(SearchMove))
      << "the BFS frontier went unaccounted";

  const std::size_t budget = dfs_bytes + (bfs_bytes - dfs_bytes) / 2;
  dfs.explore.budget.max_bytes = budget;
  bfs.explore.budget.max_bytes = budget;
  const VerifyResult bfs_capped = wc.run(bfs);
  EXPECT_EQ(bfs_capped.verdict, Verdict::kInconclusive);
  EXPECT_EQ(bfs_capped.budget_tripped, BudgetKind::kMemory)
      << "a " << budget << "-byte budget did not bound a " << bfs_bytes
      << "-byte BFS run";
  EXPECT_EQ(wc.run(dfs).budget_tripped, BudgetKind::kStates)
      << "DFS, at " << dfs_bytes << " bytes, must stay under the budget";
}

TEST(BudgetSoundness, MemoryBudgetCountsRecordedOutcomes) {
  // A PEC with dependents keeps every converged state for them. Those
  // outcomes are model memory too: a byte budget halfway between the run's
  // footprint without them and with them must stop it. The ring under up to
  // three link failures records one outcome per failure set (299), which
  // dominate its bytes.
  const Network net = make_ring(12);
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  const LoopFreedomPolicy policy;
  ExploreOptions opts;
  opts.max_failures = 3;
  opts.lec_failures = false;
  opts.record_outcomes = true;
  const ExploreResult free_run =
      Explorer(net, pec, make_tasks(net, pec), policy, opts).run();
  ASSERT_EQ(free_run.verdict(), Verdict::kHolds);
  ASSERT_GT(free_run.outcomes.size(), 1u);
  const std::size_t with = free_run.stats.model_bytes();
  const std::size_t outcomes = free_run.stats.bytes_outcomes;
  ASSERT_GT(outcomes, free_run.outcomes.size() * sizeof(PecOutcome));

  opts.budget.max_bytes = with - outcomes / 2;
  const ExploreResult capped =
      Explorer(net, pec, make_tasks(net, pec), policy, opts).run();
  EXPECT_EQ(capped.budget_tripped, BudgetKind::kMemory)
      << "a " << opts.budget.max_bytes << "-byte budget did not bound a "
      << with << "-byte run (" << outcomes << " of them outcomes)";
  EXPECT_EQ(capped.verdict(), Verdict::kInconclusive);
}

TEST(BudgetSoundness, StateBudgetTripsIdenticallyAcrossCores) {
  // A budget-tripped run reports the same taxonomy and the same partial
  // counts whether its tasks run on the calling thread or on 4 workers.
  const WorstCase wc;
  VerifyOptions vo;
  vo.explore.budget.max_states = 5000;
  const Fingerprint ref = fingerprint(wc.run(vo));
  EXPECT_EQ(ref.verdict, Verdict::kInconclusive);
  EXPECT_EQ(ref.budget_tripped, BudgetKind::kStates);
  VerifyOptions steal = vo;
  steal.cores = 4;
  EXPECT_EQ(fingerprint(wc.run(steal)), ref)
      << "budget trip diverged between 1 and 4 cores";
}

TEST(BudgetSoundness, ExploreBudgetIsHonoredByVerifier) {
  // VerifyOptions::explore.budget is the one budget: a state cap set there
  // must reach every PEC exploration at any worker count. The whole test
  // checks loop freedom on the worst-case PEC.
  const WorstCase wc;
  const LoopFreedomPolicy loop;
  VerifyOptions vo;
  vo.explore.budget.max_states = 5000;
  for (const int cores : {1, 4}) {
    VerifyOptions sv = vo;
    sv.cores = cores;
    const VerifyResult r = wc.run(sv, loop);
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << "cores=" << cores;
    EXPECT_EQ(r.budget_tripped, BudgetKind::kStates) << "cores=" << cores;
  }
}

// ---------------------------------------------------------------------------
// Per-PEC fair-share slice (the dedup-rerun divide-by-zero guard)
// ---------------------------------------------------------------------------

TEST(FairShareSlice, DividesRemainingOverUnstartedPecs) {
  using std::chrono::milliseconds;
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 10, 0), milliseconds(100));
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 10, 5), milliseconds(200));
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 10, 9), milliseconds(1000));
}

TEST(FairShareSlice, StartedCatchingSchedulerNeverDividesByZero) {
  // The race this guards: a dedup member rerun bumps `started` past the
  // static scheduled count, so scheduled - started would be 0 (or wrap
  // negative as size_t). The slice must stay a sane positive duration.
  using std::chrono::milliseconds;
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 10, 10), milliseconds(1000));
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 10, 12), milliseconds(1000));
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 0, 0), milliseconds(1000));
  EXPECT_EQ(fair_share_slice(milliseconds(1000), 0, 7), milliseconds(1000));
}

TEST(FairShareSlice, ExhaustedOrSubMillisecondRemainderClampsToMinimum) {
  using std::chrono::milliseconds;
  EXPECT_EQ(fair_share_slice(milliseconds(0), 10, 0), milliseconds(1));
  EXPECT_EQ(fair_share_slice(milliseconds(-50), 10, 0), milliseconds(1));
  // 5 ms over 10 unstarted PECs truncates to 0 — clamp, never hand the
  // explorer a zero deadline (zero means "unbounded" downstream).
  EXPECT_EQ(fair_share_slice(milliseconds(5), 10, 0), milliseconds(1));
}

TEST(FairShareSlice, DedupRerunsDoNotStarveTheFinalPec) {
  // End-to-end: symmetric workload where dedup collapses many PECs onto one
  // representative and the members rerun as scheduled work. Under a global
  // deadline the run must still classify soundly (hold within budget or
  // inconclusive-on-deadline) — never a garbage slice that trips instantly
  // with a bogus verdict.
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.pec_dedup = true;
  vo.explore.budget.deadline = std::chrono::seconds(60);
  Verifier verifier(ft.net, vo);
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_TRUE(r.exhaustive);
}

// ---------------------------------------------------------------------------
// Deadline arithmetic
// ---------------------------------------------------------------------------

TEST(DeadlineAfter, SaturatesPastTheClockRange) {
  using std::chrono::milliseconds;
  using TimePoint = std::chrono::steady_clock::time_point;
  const TimePoint now = std::chrono::steady_clock::now();
  EXPECT_EQ(deadline_after(now, milliseconds(5)), now + milliseconds(5));
  // 10^13 ms is about 317 years: past 2^63 ns, where the plain sum wraps.
  EXPECT_EQ(deadline_after(now, milliseconds(10'000'000'000'000)),
            TimePoint::max());
  EXPECT_EQ(deadline_after(now, milliseconds::max()), TimePoint::max());
}

TEST(BudgetSoundness, DeadlinePastTheClockRangeNeverTrips) {
  // plankton_verify --deadline-ms 10000000000000: the whole-run deadline and
  // each PEC's slice saturate instead of wrapping into the past, so the run
  // completes and holds.
  const Network net = make_ring(8);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.budget.deadline = std::chrono::milliseconds(10'000'000'000'000);
  Verifier verifier(net, vo);
  const VerifyResult r = verifier.verify(policy);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.budget_tripped, BudgetKind::kNone);
  EXPECT_GT(r.total.converged_states, 0u);
}

}  // namespace
}  // namespace plankton
