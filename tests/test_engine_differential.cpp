// Differential fuzzing of the exploration engines (the tentpole harness).
//
// Plankton's equivalence-partitioned model checking is only trustworthy if
// every exploration order visits the same violation set. This harness
// generates seeded random topology/config instances (tests/support/
// random_net.hpp: rings, fat-trees, random OSPF/BGP graphs, protocol+static
// mixes, with failure budgets) and checks, per instance:
//
//   · kDfs and kBfs produce identical verdicts, violation multisets, and
//     state-count invariants (states stored, converged states, failure sets,
//     policy checks) — BFS reorders the search, never changes it;
//   · BFS's first counterexample trail is never longer than DFS's — the
//     reason the second exhaustive engine exists;
//   · kSingleExecution (Batfish-style simulation) is sound: its violations
//     and converged outcomes are subsets of the exhaustive ones, one
//     execution per (failure set × upstream outcome) root;
//   · on pure single-prefix eBGP instances, every exhaustive engine's
//     converged path set equals the SPVP message-passing oracle's
//     (Theorem 1, Appendix A), and the default search's verdict equals the
//     policy evaluated on the oracle's converged states;
//   · failure relevance (skipping a set whose newest link is off its
//     parent's SPF DAG) keeps every verdict and violation, trail text
//     included, against record_outcomes runs, which turn it off;
//   · the one-pass run of SPF-ordered OSPF phases keeps every verdict,
//     exploration count and violation of the move-by-move rescan path;
//   · undo() leaves the model exactly as it was before the move: driven by
//     hand, every state expands to the same moves and has the same state key
//     after each apply/expand/undo of each of its moves, and undo interns
//     nothing.
//
// Reproduction workflow: every assertion names the instance seed; rebuild
// the instance with make_random_instance(seed) and re-run one engine. The
// instance count scales with PLANKTON_DIFF_SEEDS (nightly CI runs more).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "protocols/spvp.hpp"
#include "rpvp/explorer.hpp"
#include "support/random_net.hpp"
#include "workload/fat_tree.hpp"

namespace plankton {
namespace {

using testsupport::RandomInstance;
using testsupport::make_random_instance;

int instance_count() {
  const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
  if (v != nullptr && std::atoi(v) > 0) return std::atoi(v);
  return 220;
}

/// The exhaustive engines, DFS first: the differential reference.
constexpr SearchEngineKind kExhaustive[] = {SearchEngineKind::kDfs,
                                            SearchEngineKind::kBfs};

/// Everything engine-order-independent a full verification observes, plus
/// the frontier high-water mark (telemetry only — engines differ on it by
/// design, so it is excluded from the equality used by the matrix).
struct Fingerprint {
  Verdict verdict = Verdict::kHolds;
  std::uint64_t states_stored = 0;
  std::uint64_t converged_states = 0;
  std::uint64_t failure_sets = 0;
  std::uint64_t policy_checks = 0;
  std::multiset<std::string> violations;
  std::uint64_t frontier_peak = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.verdict == b.verdict && a.states_stored == b.states_stored &&
           a.converged_states == b.converged_states &&
           a.failure_sets == b.failure_sets &&
           a.policy_checks == b.policy_checks && a.violations == b.violations;
  }
};

VerifyOptions base_options(const RandomInstance& inst) {
  VerifyOptions vo;
  vo.cores = 1;
  vo.explore = inst.explore;  // seeded §4-optimization mix + failure budget
  vo.explore.find_all_violations = true;
  // Suppression elides policy checks for signature-equivalent converged
  // states; which representative gets checked is order-dependent, so the
  // differential fingerprint runs with it off (and checks *more* states).
  vo.explore.suppress_equivalent = false;
  // Partial-order reduction is order-sensitive by design (which interleaving
  // survives depends on the engine's visit order), so the cross-engine
  // state-count fingerprint pins it off. PorOnMatchesPorOff below is the
  // dedicated oracle for the reduction itself.
  vo.explore.por = false;
  return vo;
}

Fingerprint fingerprint(const RandomInstance& inst, SearchEngineKind kind,
                        bool por = false, bool find_all = true,
                        std::uint64_t* por_pruned = nullptr,
                        bool pec_dedup = true) {
  VerifyOptions vo = base_options(inst);
  vo.pec_dedup = pec_dedup;
  vo.explore.por = por;
  vo.explore.find_all_violations = find_all;
  vo.explore.engine_kind = kind;
  Verifier verifier(inst.net, vo);
  const VerifyResult r = verifier.verify(*inst.policy);
  if (por_pruned != nullptr) *por_pruned += r.total.por_pruned;
  Fingerprint fp;
  fp.verdict = r.verdict;
  fp.states_stored = r.total.states_stored;
  fp.converged_states = r.total.converged_states;
  fp.failure_sets = r.total.failure_sets;
  fp.policy_checks = r.total.policy_checks;
  fp.frontier_peak = r.total.frontier_peak;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      fp.violations.insert(rep.pec_str + "|" + std::to_string(v.failures.hash()) +
                           "|" + v.message);
    }
  }
  return fp;
}

TEST(EngineDifferential, ExhaustiveEnginesAgreeOnRandomInstances) {
  const int count = instance_count();
  std::uint64_t widened = 0;  // instances where a frontier actually widened
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", k=" + std::to_string(inst.max_failures) + ", policy " +
                 inst.policy->name() + ")");
    const Fingerprint ref = fingerprint(inst, SearchEngineKind::kDfs);
    EXPECT_GT(ref.converged_states, 0u);
    const Fingerprint bfs = fingerprint(inst, SearchEngineKind::kBfs);
    EXPECT_EQ(bfs, ref) << "bfs diverged from dfs";
    // Widening telemetry, free from the matrix run: did the frontier ever
    // hold more than one pending state on this instance?
    if (bfs.frontier_peak > 1) ++widened;
  }
  // The corpus must include genuinely non-deterministic searches, otherwise
  // the differential result is vacuous (everything trivially agrees on
  // deterministic move trees).
  EXPECT_GT(widened, static_cast<std::uint64_t>(count) / 20)
      << "corpus too deterministic: frontier never widened";
}

/// RPVP move events (kSelect + kWithdraw) of a trail: its length as a
/// counterexample, without the failure, upstream and phase markers.
std::size_t move_events(const Trail& trail) {
  return static_cast<std::size_t>(std::count_if(
      trail.events.begin(), trail.events.end(), [](const TrailEvent& e) {
        return e.kind == TrailEvent::Kind::kSelect ||
               e.kind == TrailEvent::Kind::kWithdraw;
      }));
}

/// Where a first-violation run stopped: the PEC and failure set of its
/// counterexample, and that trail's length in events and in move events.
struct FirstTrail {
  std::string pec;
  std::uint64_t failures = 0;
  std::size_t events = 0;
  std::size_t moves = 0;
};

std::optional<FirstTrail> first_trail(const Network& net, const Policy& policy,
                                      VerifyOptions vo, SearchEngineKind kind,
                                      const IpAddr* address = nullptr) {
  vo.explore.engine_kind = kind;
  vo.explore.find_all_violations = false;
  Verifier verifier(net, vo);
  const VerifyResult r = address != nullptr
                             ? verifier.verify_address(*address, policy)
                             : verifier.verify(policy);
  for (const auto& rep : r.reports) {
    if (rep.result.violations.empty()) continue;
    const Violation& v = rep.result.violations.front();
    return FirstTrail{rep.pec_str, v.failures.hash(), v.trail.events.size(),
                      move_events(v.trail)};
  }
  return std::nullopt;
}

TEST(EngineDifferential, BfsTrailIsNeverLongerThanDfs) {
  // BFS stays for one reason: it reports the shortest counterexample. On
  // every violating instance, in first-violation mode, it must stop at the
  // same PEC and failure set as DFS with a trail of no more RPVP moves. POR
  // is DFS-only, so the por=true arm compares DFS with POR against the
  // unreduced BFS search.
  const int count = instance_count();
  std::uint64_t violating = 0;
  std::uint64_t shorter = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", k=" + std::to_string(inst.max_failures) + ", policy " +
                 inst.policy->name() + ")");
    for (const bool por : {false, true}) {
      VerifyOptions vo = base_options(inst);
      vo.explore.por = por;
      const auto dfs = first_trail(inst.net, *inst.policy, vo, SearchEngineKind::kDfs);
      const auto bfs = first_trail(inst.net, *inst.policy, vo, SearchEngineKind::kBfs);
      ASSERT_EQ(bfs.has_value(), dfs.has_value()) << "por=" << por;
      if (!dfs) continue;
      ++violating;
      EXPECT_EQ(bfs->pec, dfs->pec) << "por=" << por;
      EXPECT_EQ(bfs->failures, dfs->failures) << "por=" << por;
      EXPECT_LE(bfs->moves, dfs->moves) << "por=" << por;
      if (bfs->moves < dfs->moves) ++shorter;
    }
  }
  std::printf("first violations: %llu, bfs strictly shorter on %llu\n",
              static_cast<unsigned long long>(violating),
              static_cast<unsigned long long>(shorter));
  EXPECT_GT(violating, 0u) << "the corpus produced no violation";

  // Most corpus trails tie, so a pinned case where BFS is strictly shorter
  // keeps the comparison from passing vacuously: a bounded-length check on
  // the RFC 7938 BGP fat tree with BGP deterministic-node detection off.
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(o);
  const BoundedPathLengthPolicy policy({ft.edges.back()}, 3);
  const IpAddr address = ft.edge_prefixes[0].addr();
  for (const bool por : {false, true}) {
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.det_nodes_bgp = false;
    vo.explore.por = por;
    const auto dfs = first_trail(ft.net, policy, vo, SearchEngineKind::kDfs, &address);
    const auto bfs = first_trail(ft.net, policy, vo, SearchEngineKind::kBfs, &address);
    ASSERT_TRUE(dfs.has_value()) << "por=" << por;
    ASSERT_TRUE(bfs.has_value()) << "por=" << por;
    EXPECT_EQ(dfs->events, 15u) << "por=" << por;
    EXPECT_EQ(bfs->events, 5u) << "por=" << por;
    EXPECT_LT(bfs->moves, dfs->moves) << "por=" << por;
  }
}

/// POR activity per native PEC run, split by whether the run can branch.
struct PorRegimes {
  std::uint64_t spf_runs = 0;          ///< SPF-ordered: POR must stay off
  std::uint64_t pruned_merge_off = 0;  ///< OSPF-only, merge_updates = false
  std::uint64_t pruned_det_off = 0;    ///< OSPF-only, deterministic_nodes = false
  std::uint64_t pruned_mixed = 0;      ///< PECs with OSPF and BGP phases
};

/// Runs `inst` with POR on under DFS and files each native PEC run's POR
/// counters by regime. A run is SPF-ordered when every phase is OSPF under
/// consistent execution with deterministic nodes and merged ECMP updates:
/// one path per failure set, so POR must do no work at all there.
void tally_por_regimes(const RandomInstance& inst, PorRegimes& t) {
  VerifyOptions vo = base_options(inst);
  vo.explore.por = true;
  Verifier verifier(inst.net, vo);
  const VerifyResult r = verifier.verify(*inst.policy);
  const ExploreOptions& o = vo.explore;
  for (const auto& rep : r.reports) {
    if (rep.translated_from != kNoPec) continue;  // the representative's stats
    bool ospf = false;
    bool bgp = false;
    for (const auto& pp : verifier.pecs().pecs[rep.pec].prefixes) {
      ospf = ospf || !pp.ospf_origins.empty();
      bgp = bgp || !pp.bgp_origins.empty();
    }
    const SearchStats& s = rep.result.stats;
    if (!bgp && o.consistent_only && o.deterministic_nodes && o.merge_updates) {
      ++t.spf_runs;
      EXPECT_EQ(s.por_footprint_time.count(), 0) << rep.pec_str;
      EXPECT_EQ(s.por_source_sets, 0u) << rep.pec_str;
      EXPECT_EQ(s.por_pruned, 0u) << rep.pec_str;
      continue;
    }
    if (ospf && bgp) t.pruned_mixed += s.por_pruned;
    if (ospf && !bgp && !o.merge_updates) t.pruned_merge_off += s.por_pruned;
    if (ospf && !bgp && !o.deterministic_nodes) t.pruned_det_off += s.por_pruned;
  }
}

/// The instance's eBGP net with OSPF also run on every router and the BGP
/// prefix also OSPF-originated at another router: each PEC of that prefix
/// has an OSPF and an eBGP phase. Null for non-BGP instances.
std::optional<RandomInstance> with_ospf_underlay(std::uint64_t seed) {
  RandomInstance inst = make_random_instance(seed);
  if (inst.kind.rfind("bgp-rand", 0) != 0) return std::nullopt;
  const std::size_t n = inst.net.topo.node_count();
  for (NodeId v = 0; v < n; ++v) {
    inst.net.device(v).ospf.enabled = true;
    inst.net.device(v).ospf.advertise_loopback = false;
  }
  inst.net.device(static_cast<NodeId>(n - 1))
      .ospf.originated.push_back(inst.bgp_prefix);
  inst.kind += "+ospf";
  return inst;
}

TEST(EngineDifferential, PorOnMatchesPorOffOnRandomInstances) {
  // Dynamic partial-order reduction against the por-off oracle. The
  // reduction prunes *interior* interleavings only: every converged data
  // plane is a terminal state of the move tree and keeps exactly one
  // surviving path to it, so verdicts, violation multisets, converged-state
  // counts, failure sets, and policy checks are all invariants — only
  // states_stored legitimately drops. The reduction is DFS-only: under kBfs
  // por = true must be a no-op, every fingerprint field equal to por = false
  // and nothing pruned.
  const int count = instance_count();
  std::uint64_t pruned = 0;
  PorRegimes regimes;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", k=" + std::to_string(inst.max_failures) + ", policy " +
                 inst.policy->name() + ")");
    const Fingerprint off = fingerprint(inst, SearchEngineKind::kDfs, false);
    const Fingerprint on =
        fingerprint(inst, SearchEngineKind::kDfs, true, true, &pruned);
    EXPECT_EQ(on.verdict, off.verdict) << "por changed the verdict";
    EXPECT_EQ(on.violations, off.violations)
        << "por changed the violation multiset";
    EXPECT_EQ(on.converged_states, off.converged_states)
        << "por lost a converged data plane";
    EXPECT_EQ(on.failure_sets, off.failure_sets);
    EXPECT_EQ(on.policy_checks, off.policy_checks);
    EXPECT_LE(on.states_stored, off.states_stored)
        << "por stored more states than the unreduced search";
    // BFS explores the unreduced move tree whatever the option says.
    std::uint64_t bfs_pruned = 0;
    const Fingerprint bfs_off = fingerprint(inst, SearchEngineKind::kBfs, false);
    const Fingerprint bfs_on =
        fingerprint(inst, SearchEngineKind::kBfs, true, true, &bfs_pruned);
    EXPECT_EQ(bfs_on, bfs_off) << "por changed the bfs search";
    EXPECT_EQ(bfs_on.frontier_peak, bfs_off.frontier_peak);
    EXPECT_EQ(bfs_pruned, 0u) << "por pruned a move under bfs";
    // Early-stop + find-all instances self-gate POR off (duplicate violation
    // counts at order-dependent cut states); the first-violation arm keeps
    // the reduction active there, so the corpus also exercises that regime.
    const Fingerprint off1 =
        fingerprint(inst, SearchEngineKind::kDfs, false, false);
    const Fingerprint on1 =
        fingerprint(inst, SearchEngineKind::kDfs, true, false, &pruned);
    EXPECT_EQ(on1.verdict, off1.verdict)
        << "por changed the first-violation verdict";
    tally_por_regimes(inst, regimes);

    // The same instance with an OSPF underlay under its eBGP phases: only
    // the regime tally. Its por-on-vs-off comparison is not asserted yet:
    // seed 103 (deterministic_nodes off) loses one of three converged
    // states under POR (ROADMAP item 1).
    const std::optional<RandomInstance> mixed =
        with_ospf_underlay(static_cast<std::uint64_t>(seed));
    if (mixed) tally_por_regimes(*mixed, regimes);
  }
  // The reduction must actually fire across the corpus, or the oracle above
  // is vacuous.
  EXPECT_GT(pruned, 0u) << "por never pruned a move across the corpus";
  // SPF-ordered runs leave POR off (Explorer's constructor); every run that
  // can branch keeps it, and it still prunes there.
  EXPECT_GT(regimes.spf_runs, 0u);
  EXPECT_GT(regimes.pruned_merge_off, 0u) << "no pruning with merge_updates off";
  EXPECT_GT(regimes.pruned_det_off, 0u) << "no pruning with deterministic_nodes off";
  EXPECT_GT(regimes.pruned_mixed, 0u) << "no pruning on OSPF+BGP PECs";
}

/// Dedup contract view: verdict + violation multiset *including rendered
/// trail text* + the per-PEC report identity — everything batch PEC
/// verification promises stays bit-identical to a dedup-off run. (State
/// counts are deliberately absent: dedup exists to change them.)
struct DedupView {
  Verdict verdict = Verdict::kHolds;
  std::size_t reports = 0;
  std::multiset<std::string> pec_strs;
  std::multiset<std::string> violations;
  std::size_t pecs_deduped = 0;

  friend bool operator==(const DedupView& a, const DedupView& b) {
    return a.verdict == b.verdict && a.reports == b.reports &&
           a.pec_strs == b.pec_strs && a.violations == b.violations;
  }
};

DedupView dedup_view(const RandomInstance& inst, SearchEngineKind kind,
                     bool dedup) {
  VerifyOptions vo = base_options(inst);
  vo.explore.engine_kind = kind;
  vo.pec_dedup = dedup;
  Verifier verifier(inst.net, vo);
  const VerifyResult r = verifier.verify(*inst.policy);
  DedupView v;
  v.verdict = r.verdict;
  v.reports = r.reports.size();
  v.pecs_deduped = r.pecs_deduped;
  for (const auto& rep : r.reports) {
    v.pec_strs.insert(rep.pec_str);
    for (const auto& viol : rep.result.violations) {
      v.violations.insert(rep.pec_str + "|" +
                          std::to_string(viol.failures.hash()) + "|" +
                          viol.message + "|" + viol.trail_text);
    }
  }
  return v;
}

TEST(EngineDifferential, DedupOnMatchesDedupOffOnRandomInstances) {
  // Batch PEC verification (eqclass/pec_dedup.hpp) against the dedup-off
  // oracle: identical verdicts, per-PEC reports, and violation multisets
  // with bit-identical trail text, per engine. An unsound class merge shows
  // up here as a clean translated hold against a native violation.
  const int count = instance_count();
  std::uint64_t merged = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", policy " + inst.policy->name() + ")");
    for (const SearchEngineKind kind :
         {SearchEngineKind::kDfs, SearchEngineKind::kBfs}) {
      const DedupView on = dedup_view(inst, kind, true);
      const DedupView off = dedup_view(inst, kind, false);
      EXPECT_EQ(on, off) << "dedup diverged under engine "
                         << (kind == SearchEngineKind::kDfs ? "dfs" : "bfs");
      merged += on.pecs_deduped;
    }
  }
  // The corpus must actually exercise class merging (rings and fat-trees
  // are symmetric), otherwise this oracle is vacuous.
  EXPECT_GT(merged, 0u) << "corpus never produced a multi-member class";
}

TEST(EngineDifferential, SingleExecutionIsSoundOnRandomInstances) {
  const int count = instance_count();
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind + ")");
    // Single execution can never prove a hold, so the verifier skips dedup
    // classing under it (can_prove) and the simulation totals count every
    // PEC. The exhaustive reference runs dedup-off so that its totals count
    // every PEC too; its verdict and violation multiset do not depend on
    // dedup (DedupOnMatchesDedupOffOnRandomInstances).
    const Fingerprint full = fingerprint(inst, SearchEngineKind::kDfs, false,
                                         true, nullptr, /*pec_dedup=*/false);
    const Fingerprint sim =
        fingerprint(inst, SearchEngineKind::kSingleExecution);
    // Simulation follows one execution per root: it can never check more
    // converged states than the exhaustive engine, and every violation it
    // reports must be one the exhaustive engine also found.
    EXPECT_LE(sim.converged_states, full.converged_states);
    EXPECT_EQ(sim.failure_sets, full.failure_sets)
        << "failure enumeration is model-driven, not engine-driven";
    if (full.verdict != Verdict::kViolated) {
      EXPECT_NE(sim.verdict, Verdict::kViolated)
          << "simulation reported a phantom violation";
    }
    // One followed execution is never a proof: without a violation the
    // verdict is inconclusive, whatever the exhaustive engine concluded.
    EXPECT_NE(sim.verdict, Verdict::kHolds)
        << "single execution reported a hold";
    for (const std::string& v : sim.violations) {
      EXPECT_TRUE(full.violations.contains(v))
          << "simulation-only violation: " << v;
    }
  }
}

TEST(EngineDifferential, SingleExecutionOutcomesAreSubsetPerPec) {
  // Explorer-level subset check on the single routed PEC of eligible
  // instances: simulation's converged outcome hashes ⊆ the exhaustive set.
  const int count = instance_count();
  int checked = 0;
  int nonempty = 0;
  for (int seed = 1; seed <= count && checked < 60; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    if (!inst.spvp_eligible) continue;
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind + ")");
    const PecSet pecs = compute_pecs(inst.net);
    const auto routed = pecs.routed();
    ASSERT_FALSE(routed.empty());
    const Pec& pec = pecs.pecs[routed[0]];
    std::set<std::uint64_t> sets[2];
    for (const bool sim : {false, true}) {
      ExploreOptions opts = inst.explore;
      opts.find_all_violations = true;
      opts.record_outcomes = true;
      if (sim) opts.engine_kind = SearchEngineKind::kSingleExecution;
      Explorer ex(inst.net, pec, make_tasks(inst.net, pec), *inst.policy, opts);
      const ExploreResult r = ex.run();
      ASSERT_EQ(r.budget_tripped, BudgetKind::kNone);
      for (const auto& o : r.outcomes) sets[sim ? 1 : 0].insert(o.hash);
    }
    EXPECT_TRUE(std::includes(sets[0].begin(), sets[0].end(), sets[1].begin(),
                              sets[1].end()))
        << "simulation reached an outcome the exhaustive search did not";
    EXPECT_FALSE(sets[0].empty());
    // sets[1] may legitimately be empty: under consistent-execution pruning
    // a single first-move execution can dead-end without converging.
    if (!sets[1].empty()) ++nonempty;
    ++checked;
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(nonempty, 0) << "simulation never converged on any instance";
}

TEST(EngineDifferential, FailureRelevanceKeepsViolations) {
  // Failure relevance (docs/architecture.md) skips the run of a set whose
  // newest link is off its parent's SPF DAG. record_outcomes turns it off
  // by rule, so it is the reference arm. It also turns off the §4.2 stop,
  // which cuts traces at other states, so a policy with sources runs both
  // arms with policy pruning off: the stop is then off in both. Everything
  // else is the default options, at one and two failures, find-all on and
  // off; find-all also runs with §3.5 suppression off, where every
  // converged state of a violated set reports its own violation. The
  // verdict and every violation (failure set, message, trail text, in
  // order) must match; only the run counts may drop.
  struct Mode {
    bool find_all;
    bool suppress;
  };
  const int count = instance_count();
  std::uint64_t runs_saved = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    const PecSet pecs = compute_pecs(inst.net);
    for (const int k : {1, 2}) {
      for (const Mode mode : {Mode{false, true}, Mode{true, true}, Mode{true, false}}) {
        SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                     ", k=" + std::to_string(k) + ", find-all " +
                     std::to_string(mode.find_all) + ", suppression " +
                     std::to_string(mode.suppress) + ", policy " +
                     inst.policy->name() + ")");
        ExploreOptions on;
        on.max_failures = k;
        on.find_all_violations = mode.find_all;
        on.suppress_equivalent = mode.suppress;
        if (!inst.policy->sources().empty()) on.policy_pruning = false;
        ExploreOptions off = on;
        off.record_outcomes = true;
        for (const PecId p : pecs.routed()) {
          const Pec& pec = pecs.pecs[p];
          Explorer with(inst.net, pec, make_tasks(inst.net, pec), *inst.policy, on);
          const ExploreResult a = with.run();
          Explorer without(inst.net, pec, make_tasks(inst.net, pec), *inst.policy, off);
          const ExploreResult b = without.run();
          ASSERT_EQ(a.verdict(), b.verdict()) << "pec " << pec.str();
          ASSERT_EQ(a.violations.size(), b.violations.size()) << "pec " << pec.str();
          for (std::size_t i = 0; i < a.violations.size(); ++i) {
            const Violation& x = a.violations[i];
            const Violation& y = b.violations[i];
            EXPECT_EQ(x.failures.str(), y.failures.str()) << "pec " << pec.str();
            EXPECT_EQ(x.message, y.message) << "pec " << pec.str();
            EXPECT_EQ(x.trail_text, y.trail_text) << "pec " << pec.str();
          }
          ASSERT_LE(a.stats.failure_sets, b.stats.failure_sets);
          runs_saved += b.stats.failure_sets - a.stats.failure_sets;
        }
      }
    }
  }
  std::printf("failure relevance: %llu failure-set runs skipped\n",
              static_cast<unsigned long long>(runs_saved));
  EXPECT_GT(runs_saved, 0u) << "the rule never fired, so nothing was compared";
}

TEST(EngineDifferential, SpfPassMatchesRescanOnRandomInstances) {
  // With incremental_expand on, an SPF-ordered OSPF phase runs as one pass
  // in (dist, id) order; incremental_expand = false walks it move by move,
  // the reference path. Default options, at the seeded failure budget and
  // at one and two failures, find-all off and on. The find-all arms turn
  // policy pruning off, so that sourced policies, whose §4.2 stop keeps the
  // step path, take the pass too. Everything the pass claims to keep must
  // match: verdicts, exploration counts, and every violation with its trail
  // text. A run took the pass when it refreshed fewer statuses: the pass
  // refreshes none. Under failures a pass reuses no-failure routes, and
  // some run must, or the reuse rule went unchecked.
  const int count = instance_count();
  std::uint64_t runs = 0;
  std::uint64_t took_pass = 0;
  std::uint64_t reused = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    for (const int k : {inst.max_failures, 1, 2}) {
      for (const bool find_all : {false, true}) {
        SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                     ", k=" + std::to_string(k) + ", find-all " +
                     std::to_string(find_all) + ", policy " +
                     inst.policy->name() + ")");
        VerifyOptions pass;
        pass.cores = 1;
        pass.explore.max_failures = k;
        pass.explore.find_all_violations = find_all;
        pass.explore.policy_pruning = !find_all;
        VerifyOptions rescan = pass;
        rescan.explore.incremental_expand = false;
        const VerifyResult a = Verifier(inst.net, pass).verify(*inst.policy);
        const VerifyResult b = Verifier(inst.net, rescan).verify(*inst.policy);
        ASSERT_EQ(a.verdict, b.verdict);
        EXPECT_EQ(a.total.states_explored, b.total.states_explored);
        EXPECT_EQ(a.total.states_stored, b.total.states_stored);
        EXPECT_EQ(a.total.converged_states, b.total.converged_states);
        EXPECT_EQ(a.total.det_steps, b.total.det_steps);
        EXPECT_EQ(a.total.nondet_branches, b.total.nondet_branches);
        EXPECT_EQ(a.total.pruned_inconsistent, b.total.pruned_inconsistent);
        EXPECT_EQ(a.total.max_depth, b.total.max_depth);
        EXPECT_EQ(a.total.failure_sets, b.total.failure_sets);
        EXPECT_EQ(a.total.policy_checks, b.total.policy_checks);
        ASSERT_EQ(a.reports.size(), b.reports.size());
        for (std::size_t i = 0; i < a.reports.size(); ++i) {
          const auto& x = a.reports[i].result.violations;
          const auto& y = b.reports[i].result.violations;
          ASSERT_EQ(a.reports[i].pec_str, b.reports[i].pec_str);
          ASSERT_EQ(x.size(), y.size()) << "pec " << a.reports[i].pec_str;
          for (std::size_t j = 0; j < x.size(); ++j) {
            EXPECT_EQ(x[j].failures.str(), y[j].failures.str());
            EXPECT_EQ(x[j].message, y[j].message);
            EXPECT_EQ(x[j].trail_text, y[j].trail_text);
          }
        }
        if (::testing::Test::HasFailure()) return;
        ++runs;
        if (a.total.dirty_refreshes < b.total.dirty_refreshes) ++took_pass;
        if (k >= 1 && a.total.routes_reused > 0) ++reused;
      }
    }
  }
  std::printf("spf pass: %llu runs matched the rescan path, %llu took the pass, "
              "%llu reused no-failure routes\n",
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(took_pass),
              static_cast<unsigned long long>(reused));
  EXPECT_GT(took_pass, 0u) << "no run took the pass, so nothing was compared";
  EXPECT_GT(reused, 0u) << "no run reused a no-failure route";
}

/// Policy that records each converged state's per-node best paths (the SPVP
/// comparison view, mirroring tests/test_spvp_reference.cpp).
class CollectorPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "collector"; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string&) const override {
    spvp::ConvergedState cs(view.net.topo.node_count());
    for (NodeId n = 0; n < view.net.topo.node_count(); ++n) {
      const RouteId r = view.ribs[0].routes[n];
      if (r != kNoRoute) {
        cs[n] = view.ctx.paths.to_vector(view.ctx.routes.get(r).path);
      }
    }
    collected.insert(std::move(cs));
    return true;
  }
  [[nodiscard]] bool supports_equivalence() const override { return false; }

  mutable std::set<spvp::ConvergedState> collected;
};

/// The data plane of one SPVP converged state, built without explorer or
/// FIB code: an origin delivers, a node with a path forwards to its head,
/// and a node holding ⊥ drops.
DataPlane spvp_dataplane(const spvp::ConvergedState& cs,
                         std::span<const NodeId> origins) {
  DataPlane dp;
  dp.entries.resize(cs.size());
  for (NodeId n = 0; n < cs.size(); ++n) {
    FibEntry& e = dp.entries[n];
    if (std::find(origins.begin(), origins.end(), n) != origins.end()) {
      e.kind = FwdKind::kLocal;
    } else if (!cs[n].empty()) {
      e.kind = FwdKind::kForward;
      e.nexthops = {cs[n].front()};
    }
  }
  return dp;
}

TEST(EngineDifferential, AllEnginesMatchSpvpOracleOnPureBgp) {
  // Two arms per instance. The converged-state arm runs every exhaustive
  // engine find-all with a collector policy. The verdict arm runs the
  // instance's policy under default options (POR, the §4.2 stop, influence
  // pruning and the §4.1.1 prune all on) and compares the verdict with the
  // policy evaluated on every SPVP converged state. random_net's policies
  // read only the data plane.
  const int count = instance_count();
  int checked = 0;
  int oracle_violated = 0;
  for (int seed = 1; seed <= count && checked < 25; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    if (!inst.spvp_eligible) continue;
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind + ")");
    const spvp::SpvpResult oracle = spvp::explore_spvp(
        inst.net, inst.bgp_prefix, inst.bgp_origins, 200000);
    if (oracle.state_limit_hit) continue;  // too big to enumerate, skip
    const PecSet pecs = compute_pecs(inst.net);
    const Pec& pec = pecs.pecs[pecs.routed()[0]];
    for (const SearchEngineKind kind : kExhaustive) {
      ExploreOptions opts = inst.explore;
      opts.max_failures = 0;  // the SPVP oracle explores the failure-free net
      opts.find_all_violations = true;
      opts.suppress_equivalent = false;
      opts.engine_kind = kind;
      const CollectorPolicy collector;
      Explorer ex(inst.net, pec, make_tasks(inst.net, pec), collector, opts);
      const ExploreResult r = ex.run();
      ASSERT_EQ(r.budget_tripped, BudgetKind::kNone);
      EXPECT_EQ(collector.collected, oracle.converged)
          << "engine " << to_string(kind) << " disagrees with the SPVP oracle";
    }
    ModelContext ctx;
    ctx.net = &inst.net;
    WalkMemo walks;
    bool oracle_holds = true;
    for (const spvp::ConvergedState& cs : oracle.converged) {
      const DataPlane dp = spvp_dataplane(cs, inst.bgp_origins);
      const ConvergedView view{inst.net, pec, dp, {}, ctx, walks};
      std::string why;
      oracle_holds = oracle_holds && inst.policy->check(view, why);
    }
    if (!oracle_holds) ++oracle_violated;
    Explorer ex(inst.net, pec, make_tasks(inst.net, pec), *inst.policy, {});
    EXPECT_EQ(ex.run().verdict(),
              oracle_holds ? Verdict::kHolds : Verdict::kViolated)
        << "default options disagree with the SPVP oracle on "
        << inst.policy->spec(inst.net);
    ++checked;
  }
  std::printf("spvp oracle: %d instances, %d violated on some converged state\n",
              checked, oracle_violated);
  EXPECT_GT(checked, 0);
}

/// Accepts every converged state: the undo walk checks the model, not a
/// property.
class AcceptAllPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "accept-all"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// A move with its route spelled out by content. RouteIds are per-explorer
/// handles: two explorers that intern routes in different orders give the
/// same route different ids.
struct MoveContent {
  SearchMove::Kind kind = SearchMove::Kind::kSelect;
  NodeId node = kNoNode;
  NodeId peer = kNoNode;
  std::vector<NodeId> path;
  std::uint32_t metric = 0;
  std::uint32_t local_pref = 0;
  std::vector<NodeId> ecmp;

  friend bool operator==(const MoveContent&, const MoveContent&) = default;
};

std::vector<MoveContent> by_content(const std::vector<SearchMove>& moves,
                                    const ModelContext& ctx) {
  std::vector<MoveContent> out;
  for (const SearchMove& m : moves) {
    MoveContent c;
    c.kind = m.kind;
    c.node = m.node;
    c.peer = m.peer;
    if (m.route != kNoRoute) {
      const Route& r = ctx.routes.get(m.route);
      c.path = ctx.paths.to_vector(r.path);
      c.metric = r.metric;
      c.local_pref = r.local_pref;
      c.ecmp = r.ecmp;
    }
    out.push_back(std::move(c));
  }
  return out;
}

bool same_moves(const std::vector<SearchMove>& a,
                const std::vector<SearchMove>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].node != b[i].node ||
        a[i].peer != b[i].peer || a[i].route != b[i].route) {
      return false;
    }
  }
  return true;
}

/// Hand-driven DFS over phase 0 of a prepared Explorer. At every state each
/// move goes apply -> expand -> undo (descending into children not seen
/// before, while the state allowance lasts), and after every undo the state
/// must expand to the identical step and move list and have the state key it
/// had before the apply, with no route or path interned by the undo itself.
struct UndoWalk {
  explicit UndoWalk(Explorer& e, bool nested) : ex(e), nested_phases(nested) {}

  Explorer& ex;
  bool nested_phases;  ///< advance() at converged states runs phases 1..n
  std::set<std::uint64_t> seen;
  std::size_t states_left = 300;
  std::uint64_t moves_checked = 0;
  std::uint64_t advances = 0;

  SearchModel::Step expand(std::vector<SearchMove>& moves) {
    moves.clear();
    return ex.expand(0, moves, SIZE_MAX);
  }

  void walk() {
    SearchModel& model = ex;
    std::vector<SearchMove> moves;
    const SearchModel::Step step = expand(moves);
    std::vector<SearchMove> again;
    if (step == SearchModel::Step::kConverged && nested_phases) {
      // The later phases push and pop their own frames above this path's.
      (void)model.advance(0);
      ++advances;
      ASSERT_EQ(expand(again), step) << "a nested phase disturbed phase 0";
    }
    if (step != SearchModel::Step::kBranch) return;
    const std::uint64_t key = ex.state_key(0);
    for (std::size_t i = 0; i < moves.size(); ++i) {
      SearchMove m = moves[i];
      model.apply(0, m);
      if (states_left > 0 && seen.insert(ex.state_key(0)).second) {
        --states_left;
        walk();
        if (::testing::Test::HasFatalFailure()) return;
      } else {
        (void)expand(again);
      }
      const std::size_t routes = ex.context().routes.size();
      const std::size_t paths = ex.context().paths.size();
      model.undo(0, m);
      EXPECT_EQ(ex.context().routes.size(), routes) << "undo interned a route";
      EXPECT_EQ(ex.context().paths.size(), paths) << "undo interned a path";
      ASSERT_EQ(expand(again), step)
          << "undo of the move at node " << m.node << " changed the step";
      ASSERT_TRUE(same_moves(again, moves))
          << "undo of the move at node " << m.node << " changed the move list";
      ASSERT_EQ(ex.state_key(0), key)
          << "undo of the move at node " << m.node << " changed the state key";
      ++moves_checked;
    }
  }
};

/// `net` plus the more-specific half of its first originated prefix,
/// originated by another device over the same protocol. The more-specific
/// PEC then holds two prefixes, i.e. two phases, so the walk also covers
/// nested phases pushing and popping their frames above phase 0's.
std::optional<Network> with_nested_prefix(const Network& net) {
  const std::size_t n = net.topo.node_count();
  for (NodeId o = 0; o < n; ++o) {
    const DeviceConfig& dev = net.device(o);
    const bool ospf = !dev.ospf.originated.empty();
    const bool bgp = dev.bgp && !dev.bgp->originated.empty();
    if (!ospf && !bgp) continue;
    const Prefix p = ospf ? dev.ospf.originated.front() : dev.bgp->originated.front();
    if (p.length() >= 32) continue;
    const Prefix half(p.addr(), static_cast<std::uint8_t>(p.length() + 1));
    for (NodeId d = 0; d < n; ++d) {
      const DeviceConfig& other = net.device(d);
      if (d == o || !(ospf ? other.ospf.enabled : other.bgp.has_value())) continue;
      Network out = net;
      DeviceConfig& dst = out.device(d);
      (ospf ? dst.ospf.originated : dst.bgp->originated).push_back(half);
      return out;
    }
  }
  return std::nullopt;
}

TEST(EngineDifferential, UndoRestoresStateOnRandomInstances) {
  // Pins the invariant undo() rests on, whatever its mechanism: the model
  // after apply + undo is the model before apply. POR is off because the
  // walk expands each state more than once, which the DFS reduction's
  // per-depth frames do not allow.
  ExploreOptions base;
  base.por = false;
  base.budget.max_states = 20000;  // bounded warm-up run
  struct Arm {
    std::string label;
    ExploreOptions opts;
    /// Differs from the first ("default") arm only in hot-path mechanics,
    /// which are exploration-neutral: its warm-up run and the root it parks
    /// at must be the default arm's. This also catches an undo that breaks
    /// the model consistently, which the walk alone, comparing the model
    /// with itself, would take for the truth.
    bool neutral = false;
  };
  std::vector<Arm> arms(5, Arm{"default", base});
  arms[1].label = "merge_updates=false";
  arms[1].opts.merge_updates = false;
  arms[2].label = "naive";
  arms[2].opts = ExploreOptions::naive();
  arms[2].opts.budget = base.budget;
  arms[3].label = "ad_cache=false";
  arms[3].opts.ad_cache = false;
  arms[3].neutral = true;
  arms[4].label = "incremental_expand=false";
  arms[4].opts.incremental_expand = false;
  arms[4].neutral = true;

  const int count = instance_count();
  std::uint64_t moves_checked = 0;
  std::uint64_t advances = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst = make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", k=" + std::to_string(inst.max_failures) + ")");
    std::vector<Network> nets{inst.net};
    if (auto nested = with_nested_prefix(inst.net)) nets.push_back(std::move(*nested));
    for (const Network& net : nets) {
      const PecSet pecs = compute_pecs(net);
      for (const std::size_t pi : pecs.routed()) {
        const Pec& pec = pecs.pecs[pi];
        std::uint64_t ref_states = 0;
        SearchModel::Step ref_step{};
        std::vector<MoveContent> ref_root;
        for (const Arm& arm : arms) {
          SCOPED_TRACE("pec " + pec.str() + ", arm " + arm.label);
          ExploreOptions opts = arm.opts;
          opts.max_failures = inst.max_failures;
          std::vector<PrefixTask> tasks = make_tasks(net, pec);
          const bool multi_phase = tasks.size() > 1;
          const AcceptAllPolicy policy;
          Explorer ex(net, pec, std::move(tasks), policy, opts);
          // run() prepares the processes and parks phase 0 at the root of
          // the last explored failure set. A tripped budget makes advance()
          // a no-op, so nested phases are walked only after a complete run.
          const ExploreResult warm = ex.run();
          UndoWalk w(ex, multi_phase && warm.budget_tripped == BudgetKind::kNone);
          std::vector<SearchMove> root;
          const SearchModel::Step root_step = w.expand(root);
          // Roots compare by route content: the default arm runs
          // SPF-ordered phases as one pass, which interns fewer routes, in
          // another order, than the rescan arm's move-by-move walk.
          if (&arm == &arms.front()) {
            ref_states = warm.stats.states_explored;
            ref_step = root_step;
            ref_root = by_content(root, ex.context());
          } else if (arm.neutral) {
            EXPECT_EQ(warm.stats.states_explored, ref_states);
            EXPECT_EQ(root_step, ref_step);
            EXPECT_EQ(by_content(root, ex.context()), ref_root)
                << "the warm-up run parked at another root than the default arm";
          }
          w.walk();
          if (::testing::Test::HasFatalFailure()) return;
          moves_checked += w.moves_checked;
          advances += w.advances;
        }
      }
    }
  }
  std::printf("undo walk: %llu moves checked, %llu nested-phase advances\n",
              static_cast<unsigned long long>(moves_checked),
              static_cast<unsigned long long>(advances));
  // The walk must reach real branching and the nested-phase path, or it
  // checks nothing.
  EXPECT_GT(moves_checked, static_cast<std::uint64_t>(count) * 10);
  EXPECT_GT(advances, 0u) << "no multi-prefix PEC reached a converged state";
}

}  // namespace
}  // namespace plankton
