// Resource budgets and the verdict taxonomy for bounded verification.
//
// A production verifier cannot afford "run until done": one oversized PEC
// would starve every other query. A ResourceBudget bounds an exploration on
// three axes — wall clock, stored states, and approximate model memory (fed
// by the visited-backend / arena `bytes()` accounting, so the cap is
// deterministic and reproducible, unlike RSS). Exhausting a budget is a
// *sound* outcome with its own verdict: the run reports `kInconclusive`
// together with which budget tripped and how far exploration got (the
// SearchStats). Exhaustion is never reported as a hold.
//
// There is exactly one budget: ExploreOptions::budget. Handed to a bare
// Explorer it bounds that one exploration; handed to the Verifier (as
// VerifyOptions::explore.budget) its deadline is the whole-run budget, which
// the Verifier slices into per-PEC deadlines (a fair share of the remaining
// time over the remaining PECs), so a monster PEC trips its own slice
// instead of starving the rest. The verdict rule is classify() below, the
// one place every result type (ExploreResult, VerifyResult) derives its
// verdict from.
#pragma once

#include <chrono>
#include <cstdint>

namespace plankton {

/// Which budget axis ended an exploration early (kNone = it ran to
/// completion). Recorded per PEC and aggregated into the run verdict.
enum class BudgetKind : std::uint8_t {
  kNone = 0,
  kDeadline = 1,  ///< wall-clock deadline (global or per-PEC slice)
  kStates = 2,    ///< stored-state cap
  kMemory = 3,    ///< approximate model-memory cap
};

[[nodiscard]] const char* to_string(BudgetKind kind);

/// Outcome classification for a verification run. `kHolds` requires the
/// exploration to have completed within budget; any budget exhaustion
/// degrades a would-be hold to `kInconclusive` (a found violation stays
/// `kViolated` — counterexamples are sound even from a partial search).
/// `kError` is reserved for infrastructure failures (config, I/O), surfaced
/// by the CLI as exit code 3.
enum class Verdict : std::uint8_t {
  kHolds = 0,
  kViolated = 1,
  kInconclusive = 2,
  kError = 3,
};

[[nodiscard]] const char* to_string(Verdict verdict);

/// The verdict rule, written once. A found violation is conclusive even
/// from a partial search; a search that ran to completion (no budget
/// tripped) with exhaustive coverage holds; anything else is inconclusive —
/// never a hold.
[[nodiscard]] constexpr Verdict classify(bool violated, BudgetKind budget_tripped,
                                         bool exhaustive) {
  if (violated) return Verdict::kViolated;
  if (budget_tripped != BudgetKind::kNone || !exhaustive) {
    return Verdict::kInconclusive;
  }
  return Verdict::kHolds;
}

/// Resource bounds for one verification. Zero on any axis means "no bound"
/// (the seed behaviour). `deadline` is the wall budget of whatever runs it:
/// one Explorer run, or the whole verification when the Verifier holds it
/// (the Verifier converts it into per-PEC slices). `max_states` /
/// `max_bytes` bound each single PEC exploration (states stored; visited +
/// arena bytes).
struct ResourceBudget {
  std::chrono::milliseconds deadline{0};
  std::uint64_t max_states = 0;
  std::size_t max_bytes = 0;

  [[nodiscard]] bool any() const {
    return deadline.count() > 0 || max_states != 0 || max_bytes != 0;
  }
};

/// The instant `deadline` after `start`, saturated at the clock's last
/// instant: a deadline too far out for the clock's nanoseconds (about 292
/// years) never trips, where the plain sum would wrap into the past.
[[nodiscard]] inline std::chrono::steady_clock::time_point deadline_after(
    std::chrono::steady_clock::time_point start,
    std::chrono::milliseconds deadline) {
  using TimePoint = std::chrono::steady_clock::time_point;
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      TimePoint::max() - start);
  return deadline < room ? start + deadline : TimePoint::max();
}

/// Per-PEC fair share of the remaining deadline: remaining / (scheduled -
/// started), clamped so the result is always a positive slice. `started` can
/// legitimately reach or pass `scheduled` — dedup reruns and racing workers
/// bump the started counter concurrently with scheduling — and `remaining`
/// can be non-positive by the time a caller computes the slice; both cases
/// must degrade to the minimum slice instead of dividing by zero or handing
/// out a negative/garbage deadline.
[[nodiscard]] inline std::chrono::milliseconds fair_share_slice(
    std::chrono::milliseconds remaining, std::size_t scheduled,
    std::size_t started) {
  const std::size_t left = scheduled > started ? scheduled - started : 1;
  if (remaining.count() <= 0) return std::chrono::milliseconds(1);
  auto slice = remaining / static_cast<std::int64_t>(left);
  if (slice.count() <= 0) slice = std::chrono::milliseconds(1);
  return slice;
}

}  // namespace plankton
