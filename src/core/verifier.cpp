#include "core/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "checker/budget.hpp"
#include "eqclass/pec_dedup.hpp"
#include "sched/outcome_store.hpp"
#include "sched/work_stealing.hpp"

namespace plankton {
namespace {

/// Policy used when a PEC is verified only to produce outcomes for
/// dependents; it never fails.
class TruePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "true"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// One schedulable task: an SCC of the PEC dependency graph, minus dedup
/// class members. The plan's TaskGraph carries the dependency edges.
struct PlanTask {
  std::vector<PecId> pecs;  ///< run in order by the task body
  /// Batch PEC verification: class_members[i] lists the PECs whose verdicts
  /// ride on pecs[i] (the class representative). The task body emits one
  /// PecReport per member, translated from the representative's clean hold
  /// or natively re-explored. Empty when no PEC of the task represents a
  /// multi-member class.
  std::vector<std::vector<PecId>> class_members;
};

/// The verification plan: everything downstream of (network, policy,
/// targets, options) that the scheduler runs. `tasks` is the one task list,
/// indexed by TaskGraph task id.
struct VerifyPlan {
  std::vector<std::uint8_t> needed;     ///< dependency closure of targets
  std::vector<std::uint8_t> is_target;  ///< policy-checked PECs
  /// Batch PEC verification classes (empty with dedup off, or when the
  /// options cannot prove a hold: see can_prove).
  PecClassSet classes;
  std::vector<PlanTask> tasks;
  sched::TaskGraph graph;
  /// Needed dependents per PEC (how many needed PECs will read its
  /// outcomes). run_task decides from it which outcomes to record, and
  /// verify_pecs seeds its eviction atomics from it.
  std::vector<std::ptrdiff_t> needed_dependents;
  /// Per PEC: its exploration cannot be exhaustive under the RPVP model. Set
  /// for every mate of a cyclic (multi-PEC) SCC task — each mate runs
  /// without the outcomes of the mates scheduled after it — and for every
  /// needed transitive dependent of such a mate, which consumes those
  /// approximated outcomes. run_pec_core reports flagged PECs with
  /// exhaustive == false, so they can never yield kHolds. Empty when the
  /// plan has no multi-PEC SCC (the common case).
  std::vector<std::uint8_t> approximated;
};

/// The plan's masks: every upstream PEC of a target must be run (for
/// outcomes) before its dependents.
VerifyPlan plan_closure(const PecSet& pecs, const PecDependencies& deps,
                        const std::vector<PecId>& targets) {
  VerifyPlan plan;
  plan.needed.assign(pecs.pecs.size(), 0);
  plan.is_target.assign(pecs.pecs.size(), 0);
  std::vector<PecId> frontier = targets;
  for (const PecId p : targets) plan.is_target[p] = 1;
  while (!frontier.empty()) {
    const PecId p = frontier.back();
    frontier.pop_back();
    if (plan.needed[p] != 0) continue;
    plan.needed[p] = 1;
    for (const PecId q : deps.depends_on[p]) frontier.push_back(q);
  }
  return plan;
}

/// Completes a plan whose masks and classes are set: the task list and its
/// graph, eviction counts and approximation flags.
void finish_plan(VerifyPlan& plan, const PecSet& pecs,
                 const PecDependencies& deps) {
  // One task per SCC, restricted to needed PECs, minus class members: batch
  // PEC verification (eqclass/pec_dedup.hpp) schedules one representative
  // per class, and the task body produces a member's report when its
  // representative finishes — translated on a clean hold, re-explored
  // natively otherwise.
  const auto& members_of = plan.classes.members_of;
  std::vector<std::int32_t> task_of_scc(deps.sccs.size(), -1);
  std::vector<std::uint32_t> scc_of_task;
  for (std::uint32_t s = 0; s < deps.sccs.size(); ++s) {
    PlanTask t;
    for (const PecId p : deps.sccs[s]) {
      if (plan.needed[p] == 0) continue;
      if (plan.classes.is_translated_member(p)) continue;
      t.pecs.push_back(p);
    }
    if (t.pecs.empty()) continue;
    for (std::size_t i = 0; i < t.pecs.size(); ++i) {
      const PecId p = t.pecs[i];
      if (p < members_of.size() && !members_of[p].empty()) {
        t.class_members.resize(t.pecs.size());
        t.class_members[i] = members_of[p];
      }
    }
    task_of_scc[s] = static_cast<std::int32_t>(plan.tasks.size());
    scc_of_task.push_back(s);
    plan.tasks.push_back(std::move(t));
  }
  plan.graph.dependents.resize(plan.tasks.size());
  plan.graph.waiting_on.assign(plan.tasks.size(), 0);
  std::vector<PecId> approx;  // seeds of VerifyPlan::approximated
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    for (const std::uint32_t dep : deps.scc_deps[scc_of_task[i]]) {
      const std::int32_t j = task_of_scc[dep];
      if (j < 0) continue;  // dependency not needed => its pecs carry no info
      ++plan.graph.waiting_on[i];
      plan.graph.dependents[static_cast<std::size_t>(j)].push_back(i);
    }
    const auto& mates = plan.tasks[i].pecs;
    if (mates.size() > 1) {
      approx.insert(approx.end(), mates.begin(), mates.end());
    }
  }
  if (!approx.empty()) plan.approximated.assign(pecs.pecs.size(), 0);
  while (!approx.empty()) {
    const PecId p = approx.back();
    approx.pop_back();
    if (plan.approximated[p] != 0) continue;
    plan.approximated[p] = 1;
    for (const PecId q : deps.dependents[p]) {
      if (plan.needed[q] != 0) approx.push_back(q);
    }
  }

  plan.needed_dependents.assign(pecs.pecs.size(), 0);
  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    for (const PecId q : deps.dependents[p]) {
      if (plan.needed[q] != 0) ++plan.needed_dependents[p];
    }
  }
}

/// The per-task execution engine: the scheduler runs each task of the plan
/// through run_task.
class PlanRunner {
 public:
  PlanRunner(const Network& net, const PecSet& pecs,
             const PecDependencies& deps, const VerifyOptions& opts,
             const Policy& policy, const VerifyPlan& plan,
             std::chrono::steady_clock::time_point start)
      : net_(net),
        pecs_(pecs),
        deps_(deps),
        opts_(opts),
        policy_(policy),
        plan_(plan),
        cross_deps_(deps.has_cross_pec_deps()),
        has_deadline_(opts.explore.budget.deadline.count() > 0),
        deadline_(deadline_after(start, opts.explore.budget.deadline)) {
    // Budget deadline fair-sharing: the global deadline is split into
    // per-PEC slices of remaining_time / remaining_unstarted_pecs, so one
    // monster PEC trips its own slice instead of starving everything
    // scheduled after it. `scheduled_pecs_` is atomic because dedup member
    // reruns are scheduled dynamically.
    std::size_t statically_scheduled = 0;
    for (const PlanTask& t : plan.tasks) {
      statically_scheduled += t.pecs.size();
    }
    scheduled_pecs_.store(statically_scheduled, std::memory_order_relaxed);
  }

  /// The one task body. Runs the task's PECs in order and emits one
  /// PecReport per PEC and per translated class member, the members ahead of
  /// their representative. A PEC's outcomes go into `store` when a needed
  /// dependent may still read them: needed_dependents[p] minus the earlier
  /// mates of this (cyclic) task that depend on p. Every dependent outside
  /// the task runs after it, so this static count equals what a runtime
  /// counter would read. `rerun` dispatches one class member's native re-run
  /// (rerun_member), which verify_pecs spawns as a stealable subtask.
  template <typename Emit, typename Rerun>
  void run_task(const PlanTask& task, OutcomeStore& store,
                Emit&& emit, Rerun&& rerun) {
    for (std::size_t i = 0; i < task.pecs.size(); ++i) {
      const PecId p = task.pecs[i];
      std::ptrdiff_t pending = plan_.needed_dependents[p];
      for (std::size_t j = 0; j < i; ++j) {
        const auto& mate_deps = deps_.depends_on[task.pecs[j]];
        if (std::find(mate_deps.begin(), mate_deps.end(), p) !=
            mate_deps.end()) {
          --pending;
        }
      }
      const bool has_dependents = pending > 0;
      PecReport rep =
          run_pec_core(p, plan_.is_target[p] != 0, has_dependents, store);
      if (has_dependents) store.put(p, std::move(rep.result.outcomes));
      rep.result.outcomes.clear();
      if (i < task.class_members.size()) {
        class_tail(rep, task.class_members[i], emit, rerun);
      }
      emit(std::move(rep));
    }
  }

  /// A class member's native re-run. Classing takes only self-contained
  /// target PECs, so the member is policy-checked and records nothing.
  PecReport rerun_member(PecId member, const OutcomeStore& store) {
    return run_pec_core(member, true, false, store);
  }

 private:
  PecReport run_pec_core(PecId pec_id, bool target, bool has_dependents,
                         const OutcomeStore& store) {
    const Pec& pec = pecs_.pecs[pec_id];
    ExploreOptions eo = opts_.explore;
    const bool has_deps = !deps_.depends_on[pec_id].empty();
    eo.record_outcomes = has_dependents;
    // §4.3: DEC-based failure choice only without cross-PEC dependencies
    // (failure sets must coordinate exactly across PEC runs).
    if (cross_deps_ && (has_deps || has_dependents)) eo.lec_failures = false;
    // State/memory caps apply per exploration; the whole-run deadline is
    // replaced by this PEC's fair-share slice.
    if (has_deadline_) {
      const std::size_t started =
          pecs_started_.fetch_add(1, std::memory_order_relaxed);
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline_ - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        PecReport rep;
        rep.pec = pec_id;
        rep.pec_str = pec.str();
        rep.result.budget_tripped = BudgetKind::kDeadline;
        return rep;
      }
      eo.budget.deadline = fair_share_slice(
          remaining, scheduled_pecs_.load(std::memory_order_relaxed), started);
    }
    StoreProvider provider(store, deps_.depends_on[pec_id]);
    Explorer explorer(
        net_, pec, make_tasks(net_, pec),
        target ? policy_ : static_cast<const Policy&>(true_policy_), eo,
        &provider);
    PecReport rep;
    rep.pec = pec_id;
    rep.pec_str = pec.str();
    rep.result = explorer.run();
    // A cyclic-SCC approximation (VerifyPlan::approximated) is a coverage
    // gap, not a proof: the verdict degrades to kInconclusive.
    if (!plan_.approximated.empty() && plan_.approximated[pec_id] != 0) {
      rep.result.exhaustive = false;
    }
    return rep;
  }

  /// Class tail of a finished representative run. A clean hold transfers to
  /// every member — the validated isomorphism guarantees the members'
  /// exploration state graphs are isomorphic to the representative's. Any
  /// non-clean result (violation, timeout, state cap) re-explores the
  /// members natively so that reported trails are the members' own,
  /// bit-identical to a dedup-off run; under early stop a violated
  /// representative already decides the verdict and the members are skipped
  /// like any other unscheduled task.
  template <typename Emit, typename Rerun>
  void class_tail(const PecReport& rep, const std::vector<PecId>& members,
                  Emit& emit, Rerun& rerun) {
    if (rep.result.verdict() == Verdict::kHolds) {
      for (const PecId m : members) {
        PecReport t;
        t.pec = m;
        t.pec_str = pecs_.pecs[m].str();
        t.translated_from = rep.pec;
        t.result.stats = rep.result.stats;
        emit(std::move(t));
      }
      return;
    }
    if (!rep.result.violations.empty() && !opts_.explore.find_all_violations) {
      return;
    }
    for (const PecId m : members) {
      // Reruns are scheduled work the static count never saw; register them
      // before dispatch so the fair-share divisor stays ahead of started.
      scheduled_pecs_.fetch_add(1, std::memory_order_relaxed);
      rerun(m);
    }
  }

  const Network& net_;
  const PecSet& pecs_;
  const PecDependencies& deps_;
  const VerifyOptions& opts_;
  const Policy& policy_;
  const VerifyPlan& plan_;
  TruePolicy true_policy_;
  const bool cross_deps_;
  const bool has_deadline_;  ///< explore.budget carries a whole-run deadline
  const std::chrono::steady_clock::time_point deadline_;
  std::atomic<std::size_t> scheduled_pecs_{0};
  std::atomic<std::size_t> pecs_started_{0};
};

}  // namespace

std::string VerifyResult::first_violation(const Topology& topo) const {
  (void)topo;
  for (const auto& rep : reports) {
    if (!rep.result.violations.empty()) {
      const auto& v = rep.result.violations.front();
      return "PEC " + rep.pec_str + ": " + v.message +
             (v.failures.empty() ? "" : " under failures " + v.failures.str());
    }
  }
  return "";
}

Verifier::Verifier(const Network& net, VerifyOptions opts)
    : net_(net), opts_(opts), pecs_(compute_pecs(net)),
      deps_(compute_dependencies(net, pecs_)) {}

VerifyResult Verifier::verify(const Policy& policy) {
  return verify_pecs(pecs_.routed(), policy);
}

VerifyResult Verifier::verify_address(IpAddr addr, const Policy& policy) {
  return verify_pecs({pecs_.find(addr)}, policy);
}

VerifyResult Verifier::verify_pecs(std::vector<PecId> targets, const Policy& policy) {
  return verify_pecs(std::move(targets), policy, opts_.explore.max_failures);
}

VerifyResult Verifier::verify_pecs(std::vector<PecId> targets,
                                   const Policy& policy, int max_failures) {
  const auto start = std::chrono::steady_clock::now();
  VerifyOptions opts = opts_;
  opts.explore.max_failures = max_failures;
  VerifyResult result;
  result.pecs_total = pecs_.pecs.size();

  VerifyPlan plan = plan_closure(pecs_, deps_, targets);
  // A representative that cannot end in a clean hold (simulation, a lossy
  // visited store) transfers nothing: every member would re-run natively.
  // Skip classing then.
  if (opts.pec_dedup && can_prove(opts.explore)) {
    plan.classes = compute_pec_classes(net_, pecs_, deps_, policy, plan.needed,
                                       plan.is_target);
  }
  finish_plan(plan, pecs_, deps_);
  result.pec_classes = plan.classes.stats.classes;
  result.pecs_deduped = plan.classes.stats.deduped;
  result.dedup_search_fallbacks = plan.classes.stats.search_fallbacks;
  result.dedup_orbit_hits = plan.classes.stats.orbit_hits;
  result.dedup_classing_time = plan.classes.stats.classing_time;
  result.scc_count = plan.tasks.size();
  result.unsupported_scc = !plan.approximated.empty();

  PlanRunner runner(net_, pecs_, deps_, opts, policy, plan, start);

  OutcomeStore store(net_, pecs_);

  // Outcome eviction: once the last needed dependent of a PEC completes, its
  // stored outcomes can never be read again — release them so the store stays
  // bounded on long runs. Counters are atomics: the last finishing task
  // evicts.
  auto pending_dependents =
      std::make_unique<std::atomic<std::ptrdiff_t>[]>(pecs_.pecs.size());
  for (PecId p = 0; p < pecs_.pecs.size(); ++p) {
    pending_dependents[p].store(plan.needed_dependents[p],
                                std::memory_order_relaxed);
  }

  std::atomic<bool> stop{false};

  // Result aggregation is lock-free: each worker appends to its own buffer
  // (the scheduler never runs two bodies on one worker concurrently) and the
  // buffers are merged after the join. Only the early-stop flag is shared.
  const int threads = std::max(1, opts.cores);
  std::vector<std::vector<PecReport>> buffers(static_cast<std::size_t>(threads));

  sched::run_task_graph(
      threads, plan.graph, [&](sched::TaskContext& tc) {
        if (stop.load(std::memory_order_relaxed)) return;
        const PlanTask& task = plan.tasks[tc.task()];
        auto& buf = buffers[static_cast<std::size_t>(tc.worker())];
        runner.run_task(
            task, store,
            [&](PecReport&& rep) {
              if (!rep.result.violations.empty() &&
                  !opts.explore.find_all_violations) {
                stop.store(true, std::memory_order_relaxed);
              }
              buf.push_back(std::move(rep));
            },
            [&](PecId m) {
              // Member re-runs become dynamic subtasks: they land on this
              // worker's deque and idle workers steal them, matching the
              // parallelism of the dedup-off task graph. Verdict folding
              // happens after the join.
              tc.spawn([&, m](sched::TaskContext& sub) {
                buffers[static_cast<std::size_t>(sub.worker())].push_back(
                    runner.rerun_member(m, store));
              });
            });
        // Every PEC of the task has read its upstream outcomes by now.
        for (const PecId p : task.pecs) {
          for (const PecId d : deps_.depends_on[p]) {
            if (pending_dependents[d].fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              store.evict(d);
            }
          }
        }
      });

  // Fold the per-PEC reports into the aggregate result.
  bool violated = false;
  for (auto& buf : buffers) {
    for (PecReport& rep : buf) {
      // Translated reports repeat their representative's stats; the
      // aggregate counts only exploration that actually happened.
      if (rep.translated_from == kNoPec) {
        result.total.absorb(rep.result.stats);
        if (plan.classes.is_translated_member(rep.pec)) ++result.dedup_reruns;
        if (rep.result.verdict() == Verdict::kInconclusive) {
          ++result.pecs_inconclusive;
        }
      }
      if (!rep.result.violations.empty()) violated = true;
      if (rep.result.budget_tripped != BudgetKind::kNone &&
          result.budget_tripped == BudgetKind::kNone) {
        result.budget_tripped = rep.result.budget_tripped;
      }
      if (!rep.result.exhaustive) result.exhaustive = false;
      if (plan.is_target[rep.pec] != 0) {
        ++result.pecs_verified;
        result.reports.push_back(std::move(rep));
      } else {
        ++result.pecs_support;
      }
    }
  }

  // The same classify() every ExploreResult uses, over the merged facts: a
  // PEC counted in pecs_inconclusive tripped a budget or was not exhaustive,
  // and both are already folded into the aggregate.
  std::sort(result.reports.begin(), result.reports.end(),
            [](const PecReport& x, const PecReport& y) { return x.pec < y.pec; });
  result.verdict = classify(violated, result.budget_tripped, result.exhaustive);
  result.wall = std::chrono::steady_clock::now() - start;
  return result;
}

}  // namespace plankton
