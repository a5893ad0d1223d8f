// OSPF modeled as an RPVP process (paper §3.4.2).
//
// Ranking is by accumulated IGP cost; equal-cost updates are merged into one
// multipath (ECMP) route — the paper's explicit special-case deviation that
// lets an OSPF node maintain multiple best paths. Because link-state routing
// converges deterministically, the deterministic-node heuristic (§4.1.2) —
// "run a network-wide shortest path computation and pick each node only
// after all nodes with shorter paths have executed" — makes exploration
// linear, comparable to simulation. prepare() runs that computation once per
// failure set and keeps the order in which it settled the nodes: with
// positive link costs that is (dist, id) order, the order in which the
// explorer's SPF-ordered pass commits them (docs/architecture.md
// "SPF-ordered phases"); the move-by-move search reaches the same order
// through deterministic_node().
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
  /// to it, and runs Dijkstra over the OSPF-only subgraph.
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

 private:
  /// Cost of the session n -> p (cheapest live link), or kInfiniteCost when
  /// p is not a live peer of n.
  [[nodiscard]] std::uint32_t session_cost(NodeId n, NodeId p) const;

  /// One link from a member to an OSPF neighbor.
  struct Session {
    NodeId peer = kNoNode;
    LinkId link = kNoLink;
    std::uint32_t cost_out = 0;  ///< member -> peer
    std::uint32_t cost_in = 0;   ///< peer -> member
  };

  Prefix prefix_;
  std::vector<NodeId> members_;
  std::vector<NodeId> origins_;
  std::vector<Session> sessions_;             // grouped by member
  std::vector<std::uint32_t> session_begin_;  // n owns [begin[n], begin[n+1])
  std::vector<std::uint8_t> parallel_;        // per node: two links to one peer
  // Under the prepared failure set:
  std::vector<std::vector<NodeId>> up_peers_;         // per node, each peer once
  std::vector<std::vector<std::uint32_t>> up_costs_;  // their session costs
  std::vector<std::uint32_t> dist_;                   // SPF distances
  std::vector<NodeId> spf_order_;                     // Dijkstra settle order
  std::vector<std::pair<std::uint32_t, NodeId>> heap_;  // (dist, id) min-heap

  // Scratch buffers for merge()/valid(), reused so the explorer's
  // steady-state apply/undo/expand cycle stays allocation-free. A process
  // belongs to exactly one Explorer (one thread); const methods may use
  // them as call-local scratch.
  mutable std::vector<NodeId> merge_hops_;
  mutable Route merge_scratch_;
  mutable std::vector<NodeId> valid_hops_;
};

}  // namespace plankton
