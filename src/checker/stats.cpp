#include "checker/stats.hpp"

#include <algorithm>

namespace plankton {

void SearchStats::absorb(const SearchStats& other) {
  states_explored += other.states_explored;
  states_stored += other.states_stored;
  revisits_skipped += other.revisits_skipped;
  converged_states += other.converged_states;
  policy_checks += other.policy_checks;
  suppressed_checks += other.suppressed_checks;
  pruned_inconsistent += other.pruned_inconsistent;
  det_steps += other.det_steps;
  nondet_branches += other.nondet_branches;
  failure_sets += other.failure_sets;
  ad_cache_hits += other.ad_cache_hits;
  ad_cache_misses += other.ad_cache_misses;
  dirty_refreshes += other.dirty_refreshes;
  por_pruned += other.por_pruned;
  por_source_sets += other.por_source_sets;
  por_footprint_time += other.por_footprint_time;
  frontier_peak = std::max(frontier_peak, other.frontier_peak);
  budget_checks += other.budget_checks;
  max_depth = std::max(max_depth, other.max_depth);
  bytes_paths += other.bytes_paths;
  bytes_routes += other.bytes_routes;
  bytes_visited += other.bytes_visited;
  bytes_stack_peak = std::max(bytes_stack_peak, other.bytes_stack_peak);
  bytes_ad_cache += other.bytes_ad_cache;
  bytes_outcomes += other.bytes_outcomes;
  elapsed = std::max(elapsed, other.elapsed);
}

std::string SearchStats::summary() const {
  std::string out;
  out += "states explored: " + std::to_string(states_explored);
  out += ", stored: " + std::to_string(states_stored);
  out += ", converged: " + std::to_string(converged_states);
  out += ", policy checks: " + std::to_string(policy_checks);
  out += ", det steps: " + std::to_string(det_steps);
  out += ", branches: " + std::to_string(nondet_branches);
  if (ad_cache_hits + ad_cache_misses > 0) {
    out += ", ad cache: " + std::to_string(ad_cache_hits) + "/" +
           std::to_string(ad_cache_hits + ad_cache_misses) + " hits";
  }
  if (por_pruned + por_source_sets > 0) {
    out += ", por pruned: " + std::to_string(por_pruned);
    out += ", por source sets: " + std::to_string(por_source_sets);
  }
  if (frontier_peak > 0) {
    out += ", frontier peak: " + std::to_string(frontier_peak);
  }
  out += ", model bytes: " + std::to_string(model_bytes());
  return out;
}

const char* to_string(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::kNone: return "none";
    case BudgetKind::kDeadline: return "deadline";
    case BudgetKind::kStates: return "states";
    case BudgetKind::kMemory: return "memory";
  }
  return "?";
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kHolds: return "holds";
    case Verdict::kViolated: return "violated";
    case Verdict::kInconclusive: return "inconclusive";
    case Verdict::kError: return "error";
  }
  return "?";
}

}  // namespace plankton
