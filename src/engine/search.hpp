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
//   kBfs              exhaustive breadth-first search over a FIFO frontier
//                     (engine/frontier.hpp): the shortest counterexample
//                     trails.
//
// Partial-order reduction is DFS-only, so kBfs always explores the unreduced
// move tree: it visits exactly the states kDfs visits with POR off — it only
// reorders them — so the two exhaustive engines must produce identical
// violation sets (tests/test_engine_differential.cpp enforces this on
// randomized topologies), and kBfs is the POR-free reference for kDfs.
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
/// not teleport between states behind the model's back: the BFS engine,
/// which logically jumps around the move tree, physically travels between
/// pending states through LIFO undo of the current path and replay of the
/// target path (engine/frontier.hpp), so the discipline — and with it the
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

  // -- partial-order reduction hook (optional) ------------------------------
  // Source-set DPOR (docs/architecture.md "Partial-order reduction") keeps
  // its sleep sets in the model, along the LIFO path of the DFS engine. The
  // Explorer turns it on under kDfs only; every other engine explores the
  // unreduced move tree.

  /// DFS engine: called between sibling subtrees of the current state. The
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

  /// Bytes of search state the engine holds (0 for DFS, whose recursion
  /// keeps no states) — part of the model-memory rule the budget checks.
  [[nodiscard]] virtual std::size_t bytes() const { return 0; }
};

enum class SearchEngineKind : std::uint8_t {
  kDfs = 0,
  kSingleExecution = 1,
  kBfs = 2,
};

/// True for strategies that explore the complete move tree (everything
/// except single-execution simulation). The Explorer reports a run of a
/// non-exhaustive strategy with ExploreResult::exhaustive == false.
[[nodiscard]] constexpr bool is_exhaustive(SearchEngineKind kind) {
  return kind != SearchEngineKind::kSingleExecution;
}

[[nodiscard]] const char* to_string(SearchEngineKind kind);

/// Parses "dfs" | "single-execution" (alias "single") | "bfs", the CLI
/// --engine vocabulary; returns false on unknown names.
[[nodiscard]] bool parse_search_engine(const char* name, SearchEngineKind& out);

[[nodiscard]] std::unique_ptr<SearchEngine> make_search_engine(
    SearchEngineKind kind);

}  // namespace plankton
