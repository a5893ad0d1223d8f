// Frontier-based exploration for the per-phase RPVP search.
//
// The DFS engine walks the move tree with strict LIFO apply/undo pairing and
// therefore needs no state storage beyond the recursion stack. Frontier
// engines (BFS, priority over StateCodec keys, seeded random-restart) instead
// keep a set of *pending* states and jump between them in an order of their
// own choosing. Because the SearchModel mutates one state in place, a pending
// state is represented as a StateSnapshot: the move path from the phase-entry
// root. Restoring snapshot B from snapshot A undoes A's path back to the
// lowest common ancestor and replays B's suffix — every undo still reverts
// the most recently applied move, so the model's incremental dirty-set
// bookkeeping (engine/active_set.hpp) stays valid throughout.
//
// Paths are stored structurally shared: the Frontier owns an arena of
// (parent, move) nodes, so a frontier of W states at depth D costs O(W + E)
// nodes (E = tree edges discovered), not O(W × D) moves.
//
// split() detaches roughly half of the pending states as self-contained
// snapshots and inject() accepts them back — the work-sharing hook that makes
// intra-PEC exploration splittable (the scheduler side is
// sched::TaskContext::spawn; see docs/architecture.md "Exploration
// strategies").
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "engine/search.hpp"

namespace plankton {

/// A self-contained, restorable position in one phase's move tree: the move
/// path from the phase-entry root, in application order. `key` carries the
/// StateCodec key used by priority ordering (0 when not computed). `sleep`
/// is the snapshot's DPOR sleep mask (empty when POR is off) — split-off
/// work inherits it, so spawned subtasks keep pruning exactly what the
/// donor would have pruned.
struct StateSnapshot {
  std::vector<SearchMove> path;
  std::uint64_t key = 0;
  std::vector<std::uint64_t> sleep;
};

/// Pending-state ordering policy of a frontier engine.
enum class FrontierOrder : std::uint8_t {
  kFifo,           ///< breadth-first: expand in discovery order
  kPriority,       ///< smallest StateCodec key first (deterministic shuffle)
  kRandomRestart,  ///< seeded uniform pops + periodic restart to the
                   ///< shallowest pending state
};

/// The pending-state set of one phase search. Stores positions as indices
/// into a structurally-shared path arena; hands them out per `order`.
class Frontier {
 public:
  /// Arena id of the phase-entry root (the empty path).
  static constexpr std::int32_t kRoot = -1;

  Frontier(FrontierOrder order, std::uint64_t seed, std::uint32_t restart_interval,
           RestartPolicy restart_policy = RestartPolicy::kLuby)
      : order_(order),
        rng_(seed),
        restart_interval_(restart_interval),
        restart_policy_(restart_policy) {
    next_restart_ = restart_interval_;
  }

  /// Drops all pending states and the path arena (keeping their capacity)
  /// and reseeds the pop order — engines reuse one Frontier per recursion
  /// depth across the many phase searches of a run instead of reallocating.
  void reset(std::uint64_t seed) {
    rng_.seed(seed);
    pops_ = 0;
    next_seq_ = 0;
    arena_.clear();
    pending_.clear();
    head_ = 0;
    live_ = 0;
    peak_ = 0;
    luby_index_ = 0;
    next_restart_ = restart_interval_;
    sleep_words_ = 0;
    sleep_pool_.clear();
  }

  /// Opts the arena into per-snapshot DPOR sleep masks of `words` 64-bit
  /// words (call after reset(); 0 disables). sleep_slot() then hands out
  /// writable storage per pushed node.
  void enable_sleep(std::size_t words) { sleep_words_ = words; }

  /// Writable sleep mask of arena node `id` (valid until the next push).
  [[nodiscard]] std::uint64_t* sleep_slot(std::int32_t id) {
    const std::size_t need = (static_cast<std::size_t>(id) + 1) * sleep_words_;
    if (sleep_pool_.size() < need) sleep_pool_.resize(need, 0);
    return &sleep_pool_[static_cast<std::size_t>(id) * sleep_words_];
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  /// High-water mark of pending states (memory accounting).
  [[nodiscard]] std::size_t peak() const { return peak_; }

  /// Registers the child of `parent` reached by `move` and makes it pending.
  /// Returns its arena id. `key` orders kPriority pops.
  std::int32_t push(std::int32_t parent, const SearchMove& move, std::uint64_t key);

  /// Makes the phase-entry root pending (start of a search).
  void push_root();

  /// Removes and returns the next pending arena id per the ordering policy.
  /// Precondition: !empty().
  std::int32_t pop();

  /// Moves roughly half of the pending states (the most recently discovered
  /// end) into `out` as self-contained snapshots, removing them from this
  /// frontier. Returns how many snapshots were moved.
  std::size_t split(std::vector<StateSnapshot>& out);

  /// Re-admits a split-off snapshot as a pending state rooted at kRoot.
  void inject(const StateSnapshot& snap);

  /// The move path from the root to arena node `id` (empty for kRoot), in
  /// application order.
  void path_to(std::int32_t id, std::vector<SearchMove>& out) const;

  // -- restore plumbing (used by the frontier engine) ------------------------
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

  [[nodiscard]] std::size_t bytes() const;

 private:
  struct PathNode {
    std::int32_t parent = kRoot;
    std::uint32_t depth = 0;
    SearchMove move;
  };
  struct Entry {
    std::int32_t id = kRoot;
    std::uint64_t key = 0;
    std::uint32_t depth = 0;
    std::uint64_t seq = 0;  ///< discovery order: FIFO order and tie-break
  };

  /// Min-heap comparison for kPriority: smallest (key, seq) on top.
  static bool heap_after(const Entry& x, const Entry& y) {
    return x.key != y.key ? x.key > y.key : x.seq > y.seq;
  }

  void add_entry(Entry e);

  FrontierOrder order_;
  std::mt19937_64 rng_;
  std::uint32_t restart_interval_;
  RestartPolicy restart_policy_ = RestartPolicy::kLuby;
  std::uint32_t luby_index_ = 0;      ///< kLuby: index into the u sequence
  std::uint64_t next_restart_ = 64;   ///< kLuby: pop count of the next restart
  std::uint64_t pops_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t sleep_words_ = 0;                 ///< 0 = sleep masks off
  std::vector<std::uint64_t> sleep_pool_;       ///< [arena id][word]
  std::vector<PathNode> arena_;
  /// Pending entries. kFifo consumes from `head_` (stale slots are left
  /// behind and reclaimed wholesale); kPriority keeps [head_, end) as a heap
  /// with head_ == 0; kRandomRestart swap-removes.
  std::vector<Entry> pending_;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace plankton
