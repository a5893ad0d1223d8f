// Per-directed-edge advertisement memoization for the RPVP hot path.
//
// RoutingProcess::advertised(p, n, best(p)) is a pure function of the
// directed session edge and the peer's current best route, given the
// prepared failure set and the bound upstream outcome (the purity contract
// in protocols/process.hpp). The explorer consults it for every peer of
// every node it refreshes on apply() and at phase entry (undo() restores the
// logged statuses and asks nothing) — but a peer's best route only changes
// when a move touches that peer, so the result for (edge, route) is
// recomputed identically millions of times. The AdCache keeps one entry per
// directed live session edge: the last (input route, output route) pair,
// valid while the cache generation matches.
//
// Invalidation is by generation counter: Explorer::check_failure_set bumps
// the generation once per (failure set, upstream outcome index) before
// binding, because both the live-peer lists and — for iBGP, whose import
// result depends on ctx.upstream IGP costs — the advertised values
// themselves change with either. Results are therefore never reused across
// upstream-outcome alternatives (the multi-protocol / iBGP bypass the cache
// would otherwise need is subsumed by the generation key).
//
// Memoizing is exploration-neutral: advertised() interns its result, so the
// memoized RouteId is byte-for-byte the id a recomputation would return, and
// no path/route-table entry the recomputation would create can be missing
// (it was created when the entry was filled). Stats counters record hits and
// misses (checker/stats.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "checker/stats.hpp"
#include "protocols/process.hpp"

namespace plankton {

class AdCache {
 public:
  /// Sizes the per-task tables. Call once before exploration starts.
  void reset(std::size_t num_tasks) {
    tasks_.clear();
    tasks_.resize(num_tasks);
  }

  /// Starts a new generation: every cached entry becomes stale. Must be
  /// called whenever the prepared failure set or the bound upstream outcome
  /// changes (see file comment).
  void invalidate() { ++gen_; }

  /// Rebuilds the slot layout of `task` from the process's live peer lists
  /// (call after RoutingProcess::prepare). Slot = offset[n] + peer index,
  /// so a lookup is one add and one array access.
  void bind(std::size_t task, const RoutingProcess& proc,
            std::size_t node_count) {
    PerTask& t = tasks_[task];
    t.offset.resize(node_count + 1);
    std::uint32_t total = 0;
    for (NodeId n = 0; n < node_count; ++n) {
      t.offset[n] = total;
      total += static_cast<std::uint32_t>(proc.peers(n).size());
    }
    t.offset[node_count] = total;
    if (t.entries.size() < total) t.entries.resize(total);
  }

  /// advertised(p, n, peer_route) through the memo. `peer_idx` is the index
  /// of `p` in proc.peers(n) for the current failure set.
  RouteId advertised(const RoutingProcess& proc, std::size_t task, NodeId n,
                     std::size_t peer_idx, NodeId p, RouteId peer_route,
                     ModelContext& ctx, SearchStats& stats) {
    if (peer_route == kNoRoute) return kNoRoute;  // ⊥ maps to ⊥ by contract
    Entry& e = tasks_[task].entries[tasks_[task].offset[n] + peer_idx];
    if (e.gen == gen_ && e.in == peer_route) {
      ++stats.ad_cache_hits;
      return e.out;
    }
    ++stats.ad_cache_misses;
    const RouteId out = proc.advertised(p, n, peer_route, ctx);
    e.in = peer_route;
    e.out = out;
    e.gen = gen_;
    return out;
  }

  [[nodiscard]] std::size_t bytes() const {
    std::size_t b = 0;
    for (const PerTask& t : tasks_) {
      b += t.offset.capacity() * sizeof(std::uint32_t) +
           t.entries.capacity() * sizeof(Entry);
    }
    return b;
  }

 private:
  struct Entry {
    RouteId in = kNoRoute;
    RouteId out = kNoRoute;
    std::uint64_t gen = 0;  ///< 0 never matches: gen_ starts at 1
  };
  struct PerTask {
    std::vector<std::uint32_t> offset;  ///< [node] -> first slot, [n+1] = end
    std::vector<Entry> entries;         ///< one per directed live edge
  };
  std::vector<PerTask> tasks_;
  std::uint64_t gen_ = 1;
};

}  // namespace plankton
