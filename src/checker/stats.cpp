#include "checker/stats.hpp"

#include <algorithm>

namespace plankton {

void SearchStats::absorb(const SearchStats& other) {
  // One walk of the field list over both objects: every counter sums,
  // except the high-water marks, which keep the larger value.
  const auto peak = [this](const void* field) {
    return field == &frontier_peak || field == &max_depth ||
           field == &bytes_stack_peak || field == &elapsed;
  };
  wire_fields(*this, [&](auto&... mine) {
    return wire_fields(other, [&](const auto&... theirs) {
      ((mine = peak(&mine) ? std::max(mine, theirs) : mine + theirs), ...);
      return true;
    });
  });
}

std::string SearchStats::summary() const {
  std::string out;
  out += "states explored: " + std::to_string(states_explored);
  out += ", stored: " + std::to_string(states_stored);
  out += ", converged: " + std::to_string(converged_states);
  out += ", policy checks: " + std::to_string(policy_checks);
  out += ", pruned inconsistent: " + std::to_string(pruned_inconsistent);
  out += ", det steps: " + std::to_string(det_steps);
  out += ", branches: " + std::to_string(nondet_branches);
  if (routes_reused > 0) {
    out += ", routes reused: " + std::to_string(routes_reused);
  }
  if (fib_entries_rebuilt > 0) {
    out += ", fib entries rebuilt: " + std::to_string(fib_entries_rebuilt);
  }
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
