// FIB assembly and forwarding-graph walks.
//
// "Once the converged states of all relevant prefixes are computed, a model
// of the FIB combines the results from the various prefixes and protocols
// into a single network-wide data plane for the PEC" (§3.3). Combination
// order is longest-prefix match first, then administrative distance. iBGP
// routes and recursive static routes resolve their next hops through the
// upstream PEC outcome (§3.2); a static route whose next hop falls inside the
// PEC being built resolves through this PEC's own protocol routes (the
// self-loop dependency the paper observed in real configs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "config/network.hpp"
#include "engine/active_set.hpp"
#include "pec/pec.hpp"
#include "protocols/process.hpp"

namespace plankton {

enum class FwdKind : std::uint8_t { kDrop, kLocal, kForward };

struct FibEntry {
  FwdKind kind = FwdKind::kDrop;
  std::vector<NodeId> nexthops;          ///< kForward only (ECMP allowed)
  Protocol source = Protocol::kConnected;
  std::uint8_t prefix_idx = 0xff;        ///< index into Pec::prefixes, 0xff = none

  friend bool operator==(const FibEntry&, const FibEntry&) = default;
};

/// Per-node forwarding behaviour for one PEC under one converged state.
struct DataPlane {
  std::vector<FibEntry> entries;

  [[nodiscard]] const FibEntry& at(NodeId n) const { return entries[n]; }
  [[nodiscard]] std::size_t bytes() const;

  friend bool operator==(const DataPlane&, const DataPlane&) = default;
};

/// One (prefix, protocol) RIB produced by an RPVP phase.
struct TaskRib {
  std::uint8_t prefix_idx = 0;
  Protocol proto = Protocol::kOspf;
  std::span<const RouteId> routes;  ///< per NodeId best route
};

/// Fills `entry` with node n's forwarding behaviour. It reads only n's
/// routes in `ribs`, the PEC's config at n and, for iBGP routes and
/// recursive statics, `ctx.upstream`; only n's static routes read
/// `failures`. So an entry whose inputs did not change needs no rebuild
/// (Explorer::update_dataplane patches its plane that way). The entry keeps
/// its next-hop capacity, so a warm rebuild allocates nothing.
void build_entry(const Network& net, const Pec& pec, const FailureSet& failures,
                 std::span<const TaskRib> ribs, const ModelContext& ctx, NodeId n,
                 FibEntry& entry);

/// Fills `dp` with the data plane of one converged state: build_entry for
/// every node. A `dp` reused across calls allocates nothing once warm.
void build_dataplane(const Network& net, const Pec& pec, const FailureSet& failures,
                     std::span<const TaskRib> ribs, const ModelContext& ctx,
                     DataPlane& dp);

/// By-value form for one-off callers (trail replay, tests).
DataPlane build_dataplane(const Network& net, const Pec& pec,
                          const FailureSet& failures, std::span<const TaskRib> ribs,
                          const ModelContext& ctx);

/// Node n's term of the one-pass signature (WalkMemo::signature with no
/// sources and no interesting nodes): a hash of n, the entry's kind, its
/// next-hop count and its next hops. The signature is the sum of the terms,
/// so a caller that rebuilds some entries keeps it current by subtracting
/// their old terms and adding their new ones.
[[nodiscard]] std::uint64_t fib_entry_term(NodeId n, const FibEntry& e);

/// Exhaustive walk of the forwarding graph from one source.
struct WalkStats {
  bool delivered_all = true;    ///< every maximal branch reaches kLocal
  bool delivered_any = false;   ///< some branch reaches kLocal
  bool dropped = false;         ///< some branch reaches kDrop
  bool looped = false;          ///< some branch revisits a node
  std::uint32_t max_hops = 0;   ///< longest branch (hops until terminal)
  bool hit_waypoint_all = true; ///< every delivered branch crossed `waypoints`
};

/// Memoized forwarding-graph walks and policy signatures over one data
/// plane. begin() starts a new generation in O(1) through generation stamps
/// (StampSet), so nothing is refilled or reallocated per walk: a warm memo
/// walks without allocating, in O(nodes + forwarding edges) per generation.
///
/// Walks in one generation share their memo. That is exact for `looped`:
/// a node marked gray is always on the current DFS stack, so every back edge
/// closes a real cycle, and a finished node's flag is final. It is not exact
/// for the other fields of a node on a cycle, whose memo holds only what was
/// known when the walk that entered the cycle reached it: with B→A and
/// A→{B, drop}, walking A first leaves B without `dropped`, while B's own
/// walk has it. So only loop freedom shares a generation across sources;
/// every other caller walks each source in its own (walk_from).
class WalkMemo {
 public:
  /// Binds the memo to `dp` and `waypoints` and forgets every earlier walk.
  void begin(const DataPlane& dp, std::span<const NodeId> waypoints = {});
  /// Walks from `src`, reusing every node this generation already finished.
  WalkStats walk(NodeId src);
  /// One source in a generation of its own: exact for every field.
  WalkStats walk_from(const DataPlane& dp, NodeId src,
                      std::span<const NodeId> waypoints = {}) {
    begin(dp, waypoints);
    return walk(src);
  }

  /// Equivalence signature of a converged data plane from the policy's
  /// point of view (§3.5): per source, path lengths and positions of
  /// interesting nodes. Used to suppress redundant policy checks. Empty
  /// `sources` means every node, and empty `interesting` every node too;
  /// when both are empty the signature is the sum of every entry's
  /// fib_entry_term, which tells apart every pair of data planes the
  /// per-source BFS over all nodes does.
  std::uint64_t signature(const DataPlane& dp, std::span<const NodeId> sources,
                          std::span<const NodeId> interesting);

 private:
  /// Per-(node, crossed-a-waypoint) walk summary. Memoized so ECMP fan-out
  /// costs O(nodes), not O(paths).
  struct NodeWalk {
    bool delivered_all = true;
    bool delivered_any = false;
    bool dropped = false;
    bool looped = false;
    bool waypoint_ok = true;   ///< every delivered continuation crossed a waypoint
    std::uint32_t hops = 0;    ///< longest continuation from here
  };

  void fit(std::size_t nodes);
  const NodeWalk& run(NodeId n, bool crossed);

  const DataPlane* dp_ = nullptr;
  std::span<const NodeId> waypoints_;
  // Per crossed-a-waypoint layer. In this generation a node is white until
  // entered, gray until finished, then black.
  std::vector<NodeWalk> memo_[2];
  StampSet entered_[2];
  StampSet finished_[2];
  // signature() scratch: BFS frontier and per-source depth stamps.
  std::vector<std::pair<NodeId, std::uint32_t>> frontier_;
  std::vector<std::uint32_t> seen_at_;
  StampSet queued_;
  StampSet interesting_;
};

/// Walk from one source with a fresh memo, for one-off callers (tests).
WalkStats walk_from(const DataPlane& dp, NodeId src,
                    std::span<const NodeId> waypoints = {});

}  // namespace plankton
