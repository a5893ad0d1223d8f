#include "engine/search.hpp"

#include <algorithm>
#include <cstring>

#include "engine/frontier.hpp"

namespace plankton {
namespace {

/// Depth-first search over the model's move tree. `branch_limit` caps how
/// many moves are taken per state: unlimited for the exhaustive check, one
/// for single-execution simulation.
class DfsEngine : public SearchEngine {
 public:
  explicit DfsEngine(std::size_t branch_limit = SIZE_MAX)
      : branch_limit_(branch_limit) {}

  [[nodiscard]] const char* name() const override { return "dfs"; }

  SearchFlow search(SearchModel& model, std::size_t phase) override {
    if (model.budget_exhausted()) return SearchFlow::kStop;
    if (!model.mark_visited(phase)) return SearchFlow::kContinue;
    // Reuse one move buffer per recursion level instead of allocating per
    // state. The buffer is moved out of the pool while in use, so nested
    // search() calls (recursion below, or advance() re-entering the engine
    // for the next phase) can never alias it; they are given deeper slots.
    if (pool_.size() <= depth_) pool_.emplace_back();
    std::vector<SearchMove> moves = std::move(pool_[depth_]);
    moves.clear();
    ++depth_;
    SearchFlow flow = SearchFlow::kContinue;
    switch (model.expand(phase, moves, branch_limit_)) {
      case SearchModel::Step::kPruned:
        break;
      case SearchModel::Step::kConverged:
        flow = model.advance(phase);
        break;
      case SearchModel::Step::kBranch: {
        // moves.size() is re-read every iteration: por_extend() may append
        // source-set backtrack siblings that races in the subtree just
        // explored proved necessary (and may reallocate the vector, so the
        // element reference is taken fresh per iteration).
        for (std::size_t i = 0; i < moves.size() && i < branch_limit_; ++i) {
          model.apply(phase, moves[i]);
          flow = search(model, phase);
          model.undo(phase, moves[i]);
          if (flow == SearchFlow::kStop) break;
          model.por_extend(phase, moves);
        }
        break;
      }
    }
    --depth_;
    pool_[depth_] = std::move(moves);
    return flow;
  }

 private:
  std::size_t branch_limit_;
  std::size_t depth_ = 0;
  std::vector<std::vector<SearchMove>> pool_;
};

class SingleExecutionEngine final : public DfsEngine {
 public:
  SingleExecutionEngine() : DfsEngine(1) {}
  [[nodiscard]] const char* name() const override { return "single-execution"; }
};

/// Breadth-first exhaustive search (engine/frontier.hpp): keeps pending
/// states as arena ids in a FIFO and expands them in discovery order.
/// Physically the model still moves one apply/undo at a time: switching
/// states undoes the current path to the lowest common ancestor and replays
/// the target suffix, so the model's incremental dirty-set bookkeeping stays
/// valid.
class BfsEngine final : public SearchEngine {
 public:
  [[nodiscard]] const char* name() const override { return "bfs"; }

  [[nodiscard]] std::uint64_t frontier_peak() const override { return peak_; }

  [[nodiscard]] std::size_t bytes() const override {
    std::size_t b = 0;
    for (const auto& ps : pool_) b += ps->frontier.bytes();
    return b;
  }

  SearchFlow search(SearchModel& model, std::size_t phase) override {
    // advance() re-enters this engine for the next phase while this
    // invocation is parked at a converged state, so search state lives in a
    // per-recursion-depth pool (reset-and-reuse, like DfsEngine::pool_ — no
    // per-root allocation churn across the failure tree). unique_ptr slots
    // keep PhaseState addresses stable while nested calls grow the pool.
    if (pool_.size() <= depth_) pool_.push_back(std::make_unique<PhaseState>());
    PhaseState& ps = *pool_[depth_];
    ++depth_;
    ps.frontier.reset();
    ps.moves.clear();
    Frontier& frontier = ps.frontier;
    std::vector<SearchMove>& moves = ps.moves;
    std::int32_t cur = Frontier::kRoot;
    SearchFlow flow = SearchFlow::kContinue;
    frontier.push_root();
    while (flow == SearchFlow::kContinue && !frontier.empty()) {
      if (model.budget_exhausted()) {
        flow = SearchFlow::kStop;
        break;
      }
      const std::int32_t id = frontier.pop();
      cur = goto_state(model, phase, frontier, cur, id);
      if (!model.mark_visited(phase)) continue;
      moves.clear();
      switch (model.expand(phase, moves, SIZE_MAX)) {
        case SearchModel::Step::kPruned:
          break;
        case SearchModel::Step::kConverged:
          flow = model.advance(phase);
          break;
        case SearchModel::Step::kBranch:
          for (const SearchMove& m : moves) frontier.push(cur, m);
          break;
      }
    }
    // Unwind to the phase-entry state — also on kStop, and with the pending
    // frontier simply dropped: the contract is to leave the model as found.
    cur = goto_state(model, phase, frontier, cur, Frontier::kRoot);
    peak_ = std::max<std::uint64_t>(peak_, frontier.peak());
    --depth_;
    return flow;
  }

 private:
  /// Moves the model from pending state `from` to `to`: LIFO-undoes up to
  /// their lowest common ancestor, then replays down to `to`.
  std::int32_t goto_state(SearchModel& model, std::size_t phase, Frontier& frontier,
                          std::int32_t from, std::int32_t to) {
    replay_scratch_.clear();
    std::int32_t a = from;
    std::int32_t b = to;
    while (frontier.depth(a) > frontier.depth(b)) {
      model.undo(phase, frontier.move(a));
      a = frontier.parent(a);
    }
    while (frontier.depth(b) > frontier.depth(a)) {
      replay_scratch_.push_back(b);
      b = frontier.parent(b);
    }
    while (a != b) {
      model.undo(phase, frontier.move(a));
      a = frontier.parent(a);
      replay_scratch_.push_back(b);
      b = frontier.parent(b);
    }
    for (auto it = replay_scratch_.rbegin(); it != replay_scratch_.rend(); ++it) {
      model.apply(phase, frontier.move(*it));
    }
    return to;
  }

  /// Reusable per-recursion-depth search state (phase searches nest via
  /// advance(), so depth is bounded by the task count).
  struct PhaseState {
    Frontier frontier;
    std::vector<SearchMove> moves;
  };

  std::uint64_t peak_ = 0;
  std::size_t depth_ = 0;
  std::vector<std::unique_ptr<PhaseState>> pool_;
  // goto_state never re-enters the engine, so one scratch is safe across
  // the nested per-phase invocations.
  std::vector<std::int32_t> replay_scratch_;
};

}  // namespace

const char* to_string(SearchEngineKind kind) {
  switch (kind) {
    case SearchEngineKind::kDfs: return "dfs";
    case SearchEngineKind::kSingleExecution: return "single-execution";
    case SearchEngineKind::kBfs: return "bfs";
  }
  return "?";
}

bool parse_search_engine(const char* name, SearchEngineKind& out) {
  for (const auto kind : {SearchEngineKind::kDfs, SearchEngineKind::kSingleExecution,
                          SearchEngineKind::kBfs}) {
    if (std::strcmp(name, to_string(kind)) == 0) {
      out = kind;
      return true;
    }
  }
  // Convenience alias for the CLI.
  if (std::strcmp(name, "single") == 0) {
    out = SearchEngineKind::kSingleExecution;
    return true;
  }
  return false;
}

std::unique_ptr<SearchEngine> make_search_engine(SearchEngineKind kind) {
  switch (kind) {
    case SearchEngineKind::kDfs: return std::make_unique<DfsEngine>();
    case SearchEngineKind::kSingleExecution:
      return std::make_unique<SingleExecutionEngine>();
    case SearchEngineKind::kBfs: return std::make_unique<BfsEngine>();
  }
  return std::make_unique<DfsEngine>();
}

}  // namespace plankton
