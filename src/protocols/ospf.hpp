// OSPF modeled as an RPVP process (paper §3.4.2).
//
// Ranking is by accumulated IGP cost; equal-cost updates are merged into one
// multipath (ECMP) route — the paper's explicit special-case deviation that
// lets an OSPF node maintain multiple best paths. Because link-state routing
// converges deterministically, the deterministic-node heuristic (§4.1.2) —
// "run a network-wide shortest path computation and pick each node only
// after all nodes with shorter paths have executed" — makes exploration
// linear, comparable to simulation. The constructor runs that computation
// once with no failures, and prepare() brings it to each failure set by
// re-settling only the nodes the failed links cut off from their
// shortest-path parents (docs/architecture.md "Incremental SPF"). It keeps
// the order in which the nodes settle: with positive link costs that is
// (dist, id) order, the order in which the explorer's SPF-ordered pass
// commits them (docs/architecture.md "SPF-ordered phases"); the
// move-by-move search reaches the same order through deterministic_node().
#pragma once

#include <utility>
#include <vector>

#include "protocols/process.hpp"

namespace plankton {

class OspfProcess final : public RoutingProcess {
 public:
  /// `origins` are the devices originating the prefix (anycast allowed).
  OspfProcess(const Network& net, Prefix prefix, std::vector<NodeId> origins);

  [[nodiscard]] Protocol protocol() const override { return Protocol::kOspf; }
  [[nodiscard]] const std::vector<NodeId>& members() const override { return members_; }
  [[nodiscard]] const std::vector<NodeId>& origins() const override { return origins_; }
  [[nodiscard]] RouteId origin_route(NodeId origin, ModelContext& ctx) const override;

  /// Lists each live OSPF peer once, at the cost of the cheapest live link
  /// to it, and brings the no-failure SPF over the OSPF-only subgraph to
  /// `failures`. Only the peer lists of the failed links' endpoints and the
  /// nodes cut off from every shortest-path parent are recomputed; a warm
  /// call allocates nothing.
  void prepare(const FailureSet& failures, ModelContext& ctx) override;

  [[nodiscard]] std::span<const NodeId> peers(NodeId n) const override {
    return up_peers_[n];
  }

  /// The peer's route plus the session cost from n: the cheapest live link
  /// between n and p, as prepare() recorded it.
  /// Pure in (p, n, peer_route) given the prepared failure set: link costs
  /// and loop rejection only.
  [[nodiscard]] RouteId advertised(NodeId p, NodeId n, RouteId peer_route,
                                   ModelContext& ctx) const override;

  [[nodiscard]] int compare(NodeId n, RouteId a, RouteId b,
                            const ModelContext& ctx) const override;

  [[nodiscard]] bool valid(NodeId n, RouteId current, const StateView& s,
                           ModelContext& ctx) const override;

  [[nodiscard]] bool merge_equal_updates() const override { return true; }
  [[nodiscard]] RouteId merge(NodeId n, std::span<const RouteId> updates,
                              ModelContext& ctx) const override;

  [[nodiscard]] NodeId deterministic_node(std::span<const NodeId> enabled,
                                          const StateView& s, ModelContext& ctx,
                                          bool& tie_ok) const override;

  /// SPF distance of `n` from the nearest origin under the prepared failure
  /// set (kInfiniteCost when unreachable). Exposed for tests and heuristics.
  [[nodiscard]] std::uint32_t spf_dist(NodeId n) const { return dist_[n]; }

  /// Every reachable node, origins included, in the order Dijkstra settled
  /// it under the prepared failure set: ascending (dist, id) when every
  /// link cost is positive.
  [[nodiscard]] std::span<const NodeId> spf_order() const { return spf_order_; }

  /// n's shortest-path parents under the prepared failure set: the live
  /// peers p with spf_dist(p) + session cost(n -> p) == spf_dist(n), in
  /// peers(n) order. Empty for origins and unreachable nodes.
  [[nodiscard]] std::span<const NodeId> spf_parents(NodeId n) const {
    const auto [begin, end] = parent_span_[n];
    return {arcs_.data() + begin, end - begin};
  }

  /// The nodes prepare() re-settled or re-parented for the prepared failure
  /// set. Every other reachable non-origin node keeps its no-failure
  /// distance, its no-failure spf_parents() in the same order, and its live
  /// peers at the same costs. Empty under no failures.
  [[nodiscard]] std::span<const NodeId> spf_changed() const { return patched_; }

 private:
  /// Cost of the session n -> p (cheapest live link), or kInfiniteCost when
  /// p is not a live peer of n.
  [[nodiscard]] std::uint32_t session_cost(NodeId n, NodeId p) const;

  /// Rebuilds n's live-peer list under `failures`.
  void list_peers(NodeId n, const FailureSet& failures);
  /// Dijkstra over all nodes, seeded from the origins, into dist_ and
  /// spf_order_.
  void full_spf(const FailureSet& failures);
  /// Dijkstra from the entries in heap_, over the live sessions: appends
  /// each node to `out` as it settles.
  void settle(const FailureSet& failures, std::vector<NodeId>& out);
  /// Appends n's parents, read from its live peers and dist_, to arcs_ and
  /// points parent_span_[n] at them.
  void collect_parents(NodeId n);
  [[nodiscard]] bool is_origin(NodeId n) const;

  /// One link from a member to an OSPF neighbor.
  struct Session {
    NodeId peer = kNoNode;
    LinkId link = kNoLink;
    std::uint32_t cost_out = 0;  ///< member -> peer
    std::uint32_t cost_in = 0;   ///< peer -> member
  };

  const Topology& topo_;
  Prefix prefix_;
  std::vector<NodeId> members_;
  std::vector<NodeId> origins_;
  std::vector<Session> sessions_;             // grouped by member
  std::vector<std::uint32_t> session_begin_;  // n owns [begin[n], begin[n+1])
  std::vector<std::uint8_t> parallel_;        // per node: two links to one peer
  /// A zero-cost session can make the parent relation cycle, so prepare()
  /// reruns Dijkstra from the origins instead of re-settling.
  bool zero_cost_ = false;
  // The no-failure SPF, computed once: distances, settle order, and the
  // parent arcs, which are arcs_[base_begin_[n], base_begin_[n + 1]).
  std::vector<std::uint32_t> base_dist_;
  std::vector<NodeId> base_order_;
  std::vector<std::uint32_t> base_begin_;
  std::uint32_t base_arcs_ = 0;  // arcs_[0, base_arcs_) is the snapshot
  // Under the prepared failure set:
  std::vector<std::vector<NodeId>> up_peers_;         // per node, each peer once
  std::vector<std::vector<std::uint32_t>> up_costs_;  // their session costs
  std::vector<std::uint32_t> dist_;                   // SPF distances
  std::vector<NodeId> spf_order_;                     // Dijkstra settle order
  std::vector<std::pair<std::uint32_t, NodeId>> heap_;  // (dist, id) min-heap
  /// Parent arcs: the snapshot, then the lists rebuilt for this set.
  std::vector<NodeId> arcs_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parent_span_;  // per node
  // What the set changed, undone by the next prepare(): kEndpoint marks the
  // ends of its failed links (touched_, whose peer lists differ from the
  // no-failure ones), kMoved the re-settled nodes (moved_); patched_ lists
  // the nodes whose parent_span_ left the snapshot.
  static constexpr std::uint8_t kEndpoint = 1;
  static constexpr std::uint8_t kMoved = 2;
  std::vector<std::uint8_t> mark_;
  std::vector<NodeId> touched_;
  std::vector<NodeId> moved_;
  std::vector<NodeId> patched_;
  std::vector<NodeId> resettled_;  // moved_ in the order they re-settled

  // Scratch buffers for merge()/valid(), reused so the explorer's
  // steady-state apply/undo/expand cycle stays allocation-free. A process
  // belongs to exactly one Explorer (one thread); const methods may use
  // them as call-local scratch.
  mutable std::vector<NodeId> merge_hops_;
  mutable Route merge_scratch_;
  mutable std::vector<NodeId> valid_hops_;
};

}  // namespace plankton
