// Search statistics: the counters behind the paper's time/memory figures.
//
// Memory is accounted deterministically from the checker's own structures
// (path/route tables, visited store, search stack high-water and the BFS
// frontier) instead of process RSS, so bench output is reproducible.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "checker/budget.hpp"

namespace plankton {

struct SearchStats {
  std::uint64_t states_explored = 0;    ///< RPVP transitions taken
  std::uint64_t states_stored = 0;      ///< distinct state hashes stored
  std::uint64_t revisits_skipped = 0;   ///< matched in the visited store
  std::uint64_t converged_states = 0;   ///< complete converged data planes
  std::uint64_t policy_checks = 0;      ///< callback invocations
  std::uint64_t suppressed_checks = 0;  ///< equivalence-suppressed callbacks (§3.5)
  std::uint64_t pruned_inconsistent = 0;///< §4.1.1 consistent-execution cuts
  std::uint64_t det_steps = 0;          ///< deterministic-node executions (§4.1.2)
  std::uint64_t nondet_branches = 0;    ///< branch points explored
  std::uint64_t failure_sets = 0;       ///< failure combinations explored
  std::uint64_t routes_reused = 0;      ///< SPF-pass routes taken from the no-failure run
  std::uint64_t fib_entries_rebuilt = 0;///< FIB entries built for converged states
  std::uint64_t ad_cache_hits = 0;      ///< advertisement memo hits
  std::uint64_t ad_cache_misses = 0;    ///< advertisement memo fills
  std::uint64_t dirty_refreshes = 0;    ///< incremental node-status refreshes
  std::uint64_t por_pruned = 0;         ///< sleep-set-pruned moves (DPOR)
  std::uint64_t por_source_sets = 0;    ///< states whose move set was sleep-narrowed
  std::chrono::nanoseconds por_footprint_time{0};  ///< footprint mask builds
  std::uint64_t frontier_peak = 0;      ///< pending-state high-water (BFS)
  std::uint64_t budget_checks = 0;      ///< periodic budget/liveness ticks
  std::uint64_t max_depth = 0;
  std::size_t bytes_paths = 0;
  std::size_t bytes_routes = 0;
  std::size_t bytes_visited = 0;
  std::size_t bytes_stack_peak = 0;     ///< RIBs, statuses, undo log, trail, BFS frontier
  std::size_t bytes_ad_cache = 0;       ///< advertisement memo tables
  std::size_t bytes_outcomes = 0;       ///< recorded outcomes, dedup table
  std::chrono::nanoseconds elapsed{0};

  /// Every counter, listed once in the field-list shape of sched/wire.hpp.
  /// No payload carries SearchStats: absorb() walks this list over both
  /// objects and merges exactly these fields, so a new counter goes here too
  /// (and, if it is a high-water mark, into absorb's maxima).
  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.states_explored, s.states_stored, s.revisits_skipped,
             s.converged_states, s.policy_checks, s.suppressed_checks,
             s.pruned_inconsistent, s.det_steps, s.nondet_branches,
             s.failure_sets, s.routes_reused, s.fib_entries_rebuilt,
             s.ad_cache_hits, s.ad_cache_misses,
             s.dirty_refreshes, s.por_pruned, s.por_source_sets,
             s.por_footprint_time, s.frontier_peak, s.budget_checks,
             s.max_depth, s.bytes_paths, s.bytes_routes, s.bytes_visited,
             s.bytes_stack_peak, s.bytes_ad_cache, s.bytes_outcomes,
             s.elapsed);
  }

  [[nodiscard]] std::size_t model_bytes() const {
    return bytes_paths + bytes_routes + bytes_visited + bytes_stack_peak +
           bytes_ad_cache + bytes_outcomes;
  }

  /// Merges per-PEC stats into whole-run totals: sums every wire_fields
  /// counter but frontier_peak, max_depth, bytes_stack_peak and elapsed,
  /// which take the maximum.
  void absorb(const SearchStats& other);

  [[nodiscard]] std::string summary() const;
};

}  // namespace plankton
