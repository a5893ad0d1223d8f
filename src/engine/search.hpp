// Pluggable exploration strategies for the per-prefix RPVP search.
//
// The protocol-semantics side (the RPVP model in src/rpvp/) exposes itself
// as a SearchModel: it can classify the current state of a phase (pruned /
// converged / branching, producing the reduced move set after §4.1–§4.2
// partial-order and policy optimizations), apply and undo single moves in
// place, and advance to the next phase when a phase converges. A
// SearchEngine owns only the *order* in which that move tree is walked:
//
//   kDfs              exhaustive depth-first search — the paper's strategy;
//   kSingleExecution  follows the first move at every branch point: one
//                     non-deterministic execution, i.e. Batfish-style
//                     simulation (paper Fig. 1, "all data planes" row);
//   kBfs              exhaustive breadth-first search over a snapshot
//                     frontier (engine/frontier.hpp);
//   kPriority         exhaustive best-first search ordered by StateCodec
//                     keys (a deterministic shuffle of the move tree);
//   kRandomRestart    exhaustive seeded random exploration with periodic
//                     restarts to the shallowest pending state.
//
// The frontier strategies visit exactly the same state set as kDfs — they
// only reorder it — so every exhaustive engine must produce identical
// violation sets (tests/test_engine_differential.cpp enforces this on
// randomized topologies).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netbase/topology.hpp"
#include "protocols/route.hpp"

namespace plankton {

enum class SearchFlow : std::uint8_t { kContinue, kStop };

/// One transition of the per-phase RPVP state machine.
struct SearchMove {
  enum class Kind : std::uint8_t {
    kSelect,    ///< node adopts an advertised route
    kWithdraw,  ///< invalid node with no replacement drops its route
  };
  Kind kind = Kind::kSelect;
  NodeId node = kNoNode;
  NodeId peer = kNoNode;        ///< advertising peer (kNoNode when merged)
  RouteId route = kNoRoute;
  RouteId prev = kNoRoute;      ///< filled by apply(); consumed by undo()
};

/// The model side of the search: protocol semantics + pruning, no strategy.
///
/// Dirty-set contract: engines drive each phase with strict stack
/// discipline — apply() and undo() come in LIFO pairs, expand() is called
/// at most once between them, and no other mutation happens in between.
/// A model may therefore maintain its enabled/conflict bookkeeping
/// *incrementally*: every apply names the move's node, which together with
/// its peers is the complete dirty set of nodes whose status can have
/// changed, so expand() can consume a maintained active set
/// (engine/active_set.hpp) instead of rescanning all members. The LIFO
/// order also lets undo() restore the dirty set's statuses from a log that
/// apply() pushed, instead of recomputing them: the statuses that held
/// before a move are exactly the ones that hold again after its undo
/// (the RPVP Explorer does this; it relies on the purity contract of
/// RoutingProcess::advertised, protocols/process.hpp). Engines must
/// not teleport between states behind the model's back: frontier engines,
/// which logically jump around the move tree, physically travel between
/// snapshots through LIFO undo of the current path and replay of the target
/// path (engine/frontier.hpp), so the discipline — and with it the
/// incremental bookkeeping — holds move by move; phase entry itself goes
/// through the advance()/begin-phase path, which rebuilds the model's sets
/// from scratch.
class SearchModel {
 public:
  enum class Step : std::uint8_t {
    kPruned,     ///< state is inconsistent / subsumed — do not expand
    kConverged,  ///< no enabled moves (or outcome already decided, §4.2)
    kBranch,     ///< expand the returned moves
  };

  virtual ~SearchModel() = default;

  /// True when a global budget (states, wall clock) is exhausted; the
  /// engine must unwind with kStop.
  virtual bool budget_exhausted() = 0;

  /// Records the current state of `phase` in the visited backend; false
  /// when it was already seen (the engine skips it).
  virtual bool mark_visited(std::size_t phase) = 0;

  /// Classifies the current state and, for kBranch, fills `moves` with the
  /// reduced branching choices in preference order. `move_budget` is how
  /// many moves the engine will actually take: the model may stop
  /// enumerating once it has that many (single-execution engines pass 1, so
  /// a simulated step costs O(1) in frontier width, not O(enabled)).
  virtual Step expand(std::size_t phase, std::vector<SearchMove>& moves,
                      std::size_t move_budget) = 0;

  /// Applies / reverts one move in place. apply() stores the information
  /// undo() needs in `m.prev`.
  virtual void apply(std::size_t phase, SearchMove& m) = 0;
  virtual void undo(std::size_t phase, const SearchMove& m) = 0;

  /// Called when `phase` converged: runs the next phase (re-entering the
  /// engine) or, after the last phase, the converged-state handler.
  virtual SearchFlow advance(std::size_t phase) = 0;

  /// Canonical StateCodec key the state of `phase` would have after taking
  /// `m` from the current state — the ordering heuristic of priority
  /// frontier engines, computable without mutating the model (Zobrist
  /// preview). Models without a codec may keep the default (priority then
  /// degrades to discovery order).
  [[nodiscard]] virtual std::uint64_t state_key_after(std::size_t phase,
                                                      const SearchMove& m) const {
    (void)phase;
    (void)m;
    return 0;
  }

  // -- partial-order reduction hooks (optional) -----------------------------
  // A model that returns nonzero por_words() runs sleep-set DPOR (see
  // docs/architecture.md "Partial-order reduction"). DFS engines keep the
  // sleep sets implicit in the model's LIFO path and only provide the
  // source-set backtrack hook; frontier engines store one sleep mask per
  // pending snapshot and thread it through attach/child-sleep.

  /// Mask width (64-bit words) of this model's sleep sets; 0 = POR off.
  [[nodiscard]] virtual std::size_t por_words() const { return 0; }

  /// Frontier engines: hands the model the sleep mask (`por_words()` words,
  /// engine-owned, valid until the next call) of the snapshot just restored,
  /// before its mark_visited()/expand(). Never called by DFS engines.
  virtual void por_attach_sleep(const std::uint64_t* sleep) { (void)sleep; }

  /// Frontier engines: computes into `out` the sleep mask of the child
  /// reached by `m` from the current state — (sleep ∪ prior) ∖ dep(m.node),
  /// where `prior` marks the siblings pushed before `m` and the state's own
  /// sleep mask is whatever por_attach_sleep() installed.
  virtual void por_child_sleep(std::size_t phase, const SearchMove& m,
                               const std::uint64_t* prior, std::uint64_t* out) {
    (void)phase;
    (void)m;
    (void)prior;
    (void)out;
  }

  /// DFS engines: called between sibling subtrees of the current state. The
  /// model may append source-set backtrack moves to `moves` — siblings that
  /// races observed inside the explored subtrees proved necessary.
  virtual void por_extend(std::size_t phase, std::vector<SearchMove>& moves) {
    (void)phase;
    (void)moves;
  }
};

class SearchEngine {
 public:
  virtual ~SearchEngine() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Exhausts (per strategy) the move tree of `phase` from the model's
  /// current in-place state. Must leave the model state as it found it.
  virtual SearchFlow search(SearchModel& model, std::size_t phase) = 0;

  /// High-water mark of pending frontier states across all phase searches
  /// (0 for stackless strategies like DFS) — feeds SearchStats.
  [[nodiscard]] virtual std::uint64_t frontier_peak() const { return 0; }
};

enum class SearchEngineKind : std::uint8_t {
  kDfs = 0,
  kSingleExecution = 1,
  kBfs = 2,
  kPriority = 3,
  kRandomRestart = 4,
};

/// True for strategies that explore the complete move tree (everything
/// except single-execution simulation). The Explorer reports a run of a
/// non-exhaustive strategy with ExploreResult::exhaustive == false.
[[nodiscard]] constexpr bool is_exhaustive(SearchEngineKind kind) {
  return kind != SearchEngineKind::kSingleExecution;
}

/// True for strategies driven by a snapshot frontier rather than the LIFO
/// recursion stack.
[[nodiscard]] constexpr bool is_frontier(SearchEngineKind kind) {
  return kind == SearchEngineKind::kBfs || kind == SearchEngineKind::kPriority ||
         kind == SearchEngineKind::kRandomRestart;
}

/// When kRandomRestart jumps back to the shallowest pending state.
enum class RestartPolicy : std::uint8_t {
  kFixedPeriod,  ///< every `restart_interval` pops (the original behavior)
  kLuby,         ///< after restart_interval × u_k pops, u = Luby sequence
                 ///< 1,1,2,1,1,2,4,… (OEIS A182105) — the universal optimal
                 ///< schedule for restart-based search
};

/// u_i of the Luby restart sequence, 1-indexed: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
[[nodiscard]] std::uint32_t luby_value(std::uint32_t i);

struct SearchEngineConfig {
  /// Seeds kRandomRestart's pop order (fuzz harnesses reproduce a failing
  /// exploration from the seed alone; see docs/architecture.md).
  std::uint64_t seed = 1;
  /// kRandomRestart: base unit of pops between restarts to the shallowest
  /// pending state (scaled by the Luby sequence under RestartPolicy::kLuby).
  std::uint32_t restart_interval = 64;
  RestartPolicy restart_policy = RestartPolicy::kLuby;
  /// Frontier engines: when nonzero, auto-split the frontier every N pops
  /// into a deferred backlog that is re-injected once the frontier drains —
  /// exercises the split()/inject() work-sharing path (tests, bench).
  std::uint32_t split_every = 0;

};

[[nodiscard]] const char* to_string(SearchEngineKind kind);

/// Parses "dfs" | "single-execution" | "bfs" | "priority" | "random-restart"
/// (the CLI --engine vocabulary); returns false on unknown names.
[[nodiscard]] bool parse_search_engine(const char* name, SearchEngineKind& out);

[[nodiscard]] std::unique_ptr<SearchEngine> make_search_engine(
    SearchEngineKind kind, const SearchEngineConfig& config = {});

}  // namespace plankton
