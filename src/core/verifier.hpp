// Public entry point: end-to-end configuration verification.
//
//   Network net = ...;                     // or parse_network_config(text)
//   Verifier verifier(net, options);
//   ReachabilityPolicy policy({ingress});
//   VerifyResult r = verifier.verify(policy);
//
// The Verifier runs the full Plankton pipeline (Fig. 3): PEC computation,
// dependency analysis, dependency-aware parallel scheduling of per-PEC
// explicit-state model checking, and policy evaluation, returning per-PEC
// reports with counterexample trails on violation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pec/pec.hpp"
#include "policy/policy.hpp"
#include "rpvp/explorer.hpp"
#include "sched/deps.hpp"

namespace plankton {

struct VerifyOptions {
  /// Exploration knobs for every PEC run. `explore.budget` is the resource
  /// budget of the whole verification (checker/budget.hpp): its deadline
  /// bounds the run and is split into per-PEC slices (a fair share of the
  /// remaining time over the PECs still unstarted) so one monster PEC cannot
  /// starve the rest; the state and memory caps apply to each PEC
  /// exploration. Exhaustion yields Verdict::kInconclusive with the tripped
  /// axis recorded — never a spurious hold.
  ExploreOptions explore;
  /// Worker threads of the work-stealing scheduler (sched/work_stealing.hpp)
  /// that run the PEC tasks; 1 runs them on the calling thread. Verdicts,
  /// violation multisets and state counts are the same at any count when
  /// explore.find_all_violations is on.
  int cores = 1;
  /// Batch PEC verification (eqclass/pec_dedup.hpp): group isomorphic PECs
  /// and explore one representative per class, transferring clean "holds"
  /// verdicts to the members. Falls back to native member exploration on any
  /// non-clean representative result, so verdicts, violation multisets, and
  /// trail text stay bit-identical to a dedup-off run. Default on;
  /// `plankton_verify --no-pec-dedup` turns it off.
  bool pec_dedup = true;
};

struct VerifyResult {
  /// Whole-run classify(): kViolated on any violation, kHolds only when
  /// every PEC ran to completion within budget with exhaustive coverage,
  /// kInconclusive otherwise.
  Verdict verdict = Verdict::kHolds;
  /// First budget axis that ended a PEC search early (kNone = none did).
  BudgetKind budget_tripped = BudgetKind::kNone;
  /// Native PEC runs whose ExploreResult::verdict() is kInconclusive: ended
  /// by a budget, or not exhaustive (single execution, bitstate visited
  /// store, approximated cyclic SCC).
  std::size_t pecs_inconclusive = 0;
  /// False when any PEC's coverage was not a proof: partial (single
  /// execution), probabilistic (the bitstate visited store) or approximated
  /// (a cyclic SCC or a dependent of one). Fixed before each run starts, by
  /// can_prove() and the cyclic-SCC flag.
  bool exhaustive = true;
  std::vector<PecReport> reports;   ///< one per verified (target) PEC
  SearchStats total;                ///< aggregated over all runs
  std::chrono::nanoseconds wall{0};
  std::size_t pecs_total = 0;       ///< PECs in the partition
  std::size_t pecs_verified = 0;    ///< target PECs model-checked
  std::size_t pecs_support = 0;     ///< upstream PECs run only for outcomes
  std::size_t scc_count = 0;
  /// An SCC with >1 PEC was approximated: its PECs, and every needed
  /// dependent of them, report exhaustive == false (never kHolds).
  bool unsupported_scc = false;
  /// Batch PEC verification counters (VerifyOptions::pec_dedup). The
  /// class-compression ratio is pecs_verified / pec_classes when every
  /// target PEC is classed; pecs_deduped counts member PECs whose verdicts
  /// were translated from a representative, dedup_reruns those re-explored
  /// natively because the representative's result was not a clean hold.
  std::size_t pec_classes = 0;
  std::size_t pecs_deduped = 0;
  std::size_t dedup_reruns = 0;
  /// PecDedupStats::search_fallbacks: member comparisons that ran out of
  /// search steps, so a symmetric input lost dedup to the budget.
  std::size_t dedup_search_fallbacks = 0;
  /// PecDedupStats::orbit_hits: members placed by a product of earlier
  /// validated bijections, with no search.
  std::size_t dedup_orbit_hits = 0;
  std::chrono::nanoseconds dedup_classing_time{0};

  [[nodiscard]] std::string first_violation(const Topology& topo) const;
};

class Verifier {
 public:
  Verifier(const Network& net, VerifyOptions opts);

  [[nodiscard]] const Network& net() const { return net_; }
  [[nodiscard]] const PecSet& pecs() const { return pecs_; }
  [[nodiscard]] const PecDependencies& deps() const { return deps_; }

  /// Verifies `policy` on every PEC that carries routing information.
  VerifyResult verify(const Policy& policy);

  /// Verifies only the PEC containing `addr` (plus its dependency closure,
  /// which is run for outcomes but not policy-checked).
  VerifyResult verify_address(IpAddr addr, const Policy& policy);

  /// Verifies an explicit set of target PECs. This is the partial
  /// re-verification entry point for the serve daemon: after a config delta,
  /// only the invalidated PECs are passed here; budgets, dedup, POR and
  /// cores compose exactly as in a full run (dependency-closure PECs are
  /// still executed for outcomes, but only `targets` are policy-checked).
  VerifyResult verify_pecs(std::vector<PecId> targets, const Policy& policy);

  /// The same under at most `max_failures` link failures in place of
  /// `explore.max_failures`: the serve daemon's resident Verifier answers
  /// every query's failure bound.
  VerifyResult verify_pecs(std::vector<PecId> targets, const Policy& policy,
                           int max_failures);

 private:
  const Network& net_;
  VerifyOptions opts_;
  PecSet pecs_;
  PecDependencies deps_;
};

}  // namespace plankton
