// The breadth-first frontier of the per-phase RPVP search.
//
// The DFS engine walks the move tree with strict LIFO apply/undo pairing and
// therefore needs no state storage beyond the recursion stack. The BFS
// engine instead keeps a FIFO of *pending* states and expands them in
// discovery order. Because the SearchModel mutates one state in place, a
// pending state is represented by its move path from the phase-entry root.
// Restoring pending state B from state A undoes A's path back to the lowest
// common ancestor and replays B's suffix — every undo still reverts the most
// recently applied move, so the model's incremental dirty-set bookkeeping
// (engine/active_set.hpp) stays valid throughout.
//
// Paths are stored structurally shared: the Frontier owns an arena of
// (parent, move) nodes, so a frontier of W states at depth D costs O(W + E)
// nodes (E = tree edges discovered), not O(W × D) moves; a pending entry is
// just its arena id.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/search.hpp"

namespace plankton {

/// The pending-state FIFO of one phase search over a structurally-shared
/// path arena.
class Frontier {
 public:
  /// Arena id of the phase-entry root (the empty path).
  static constexpr std::int32_t kRoot = -1;

  /// Drops all pending states and the path arena (keeping their capacity) —
  /// the engine reuses one Frontier per recursion depth across the many
  /// phase searches of a run instead of reallocating.
  void reset() {
    arena_.clear();
    pending_.clear();
    head_ = 0;
    peak_ = 0;
  }

  [[nodiscard]] bool empty() const { return head_ == pending_.size(); }
  /// High-water mark of pending states (memory accounting).
  [[nodiscard]] std::size_t peak() const { return peak_; }

  /// Registers the child of `parent` reached by `move` and makes it pending.
  void push(std::int32_t parent, const SearchMove& move);

  /// Makes the phase-entry root pending (start of a search).
  void push_root() { enqueue(kRoot); }

  /// Removes and returns the oldest pending arena id. Precondition: !empty().
  std::int32_t pop();

  // -- restore plumbing (used by the BFS engine) ----------------------------
  [[nodiscard]] std::int32_t parent(std::int32_t id) const {
    return arena_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] std::uint32_t depth(std::int32_t id) const {
    return id == kRoot ? 0 : arena_[static_cast<std::size_t>(id)].depth;
  }
  /// Mutable: SearchModel::apply() stores undo information in the move.
  [[nodiscard]] SearchMove& move(std::int32_t id) {
    return arena_[static_cast<std::size_t>(id)].move;
  }

  /// Bytes held by the path arena and the pending queue.
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct PathNode {
    std::int32_t parent = kRoot;
    std::uint32_t depth = 0;
    SearchMove move;
  };

  void enqueue(std::int32_t id);

  std::vector<PathNode> arena_;
  /// Pending arena ids, consumed from `head_`; the consumed prefix is
  /// reclaimed wholesale.
  std::vector<std::int32_t> pending_;
  std::size_t head_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace plankton
