// BGP modeled as an RPVP process (paper §3.4, §4.1.2).
//
// Sessions are eBGP (over a physical link) or iBGP (loopback-to-loopback,
// live only while both loopbacks are mutually reachable per the upstream IGP
// outcome — the PEC-dependency mechanism of §3.2). Route maps supply the
// import/export filters; ranking follows the BGP decision process:
//   higher local-pref > shorter AS path > eBGP-learned over iBGP-learned >
//   lower IGP cost to the next hop > age-based tie (non-deterministic).
//
// The deterministic-node heuristic mirrors §4.1.2: a pending update wins if
// it is provably never replaced, checked step-by-step with conservative
// bounds (max assignable local-pref, minimum possible AS-path length from
// the session graph, minimum possible IGP cost). If no clear winner exists
// but every potential winner of some node is already enabled, that node is
// nominated with tie_ok so the engine branches only over its tied updates
// (Fig. 6, steps 4-5).
#pragma once

#include <vector>

#include "protocols/bgp_common.hpp"
#include "protocols/process.hpp"

namespace plankton {

class BgpProcess final : public RoutingProcess {
 public:
  BgpProcess(const Network& net, Prefix prefix, std::vector<NodeId> origins);

  [[nodiscard]] Protocol protocol() const override { return Protocol::kEbgp; }
  [[nodiscard]] const std::vector<NodeId>& members() const override { return members_; }
  [[nodiscard]] const std::vector<NodeId>& origins() const override { return origins_; }
  [[nodiscard]] RouteId origin_route(NodeId origin, ModelContext& ctx) const override;

  void prepare(const FailureSet& failures, ModelContext& ctx) override;

  [[nodiscard]] std::span<const NodeId> peers(NodeId n) const override {
    return up_peers_[n];
  }

  /// Pure in (p, n, peer_route) given the prepared failure set and the
  /// ctx.upstream binding (route maps are static config; iBGP metrics come
  /// from ctx.upstream only, which keys the cache generation).
  [[nodiscard]] RouteId advertised(NodeId p, NodeId n, RouteId peer_route,
                                   ModelContext& ctx) const override;

  [[nodiscard]] int compare(NodeId n, RouteId a, RouteId b,
                            const ModelContext& ctx) const override;

  [[nodiscard]] NodeId deterministic_node(std::span<const NodeId> enabled,
                                          const StateView& s, ModelContext& ctx,
                                          bool& tie_ok) const override;

  [[nodiscard]] bool can_transmit(NodeId from, NodeId to) const override;

 private:
  /// Most optimistic rank an *uncommitted* peer `p` could ever deliver to `n`.
  [[nodiscard]] BgpRank optimistic_rank(NodeId n, NodeId p) const;

  [[nodiscard]] bool session_up(NodeId a, NodeId b, const FailureSet& failures,
                                const ModelContext& ctx, bool ibgp) const;

  const Network& net_;
  Prefix prefix_;
  std::vector<NodeId> members_;
  std::vector<NodeId> origins_;
  std::vector<std::vector<NodeId>> up_peers_;
  const UpstreamResolver* upstream_ = nullptr;

  // Heuristic bounds, recomputed in prepare():
  std::vector<std::uint32_t> min_as_len_;   // 0-1 BFS over up sessions (eBGP=1, iBGP=0)
  std::vector<std::uint32_t> max_lp_in_;    // per node: max local-pref any import could set
  std::uint32_t global_max_lp_ = 100;       // bound for carried (iBGP) local-pref
  std::vector<std::vector<std::uint32_t>> ibgp_metric_;  // [n] aligned with up_peers_[n]
  /// Nodes that can ever export over iBGP: origins or eBGP-attached devices
  /// (iBGP-learned routes are never re-advertised to iBGP peers, so other
  /// nodes can be ignored by the dominance check).
  std::vector<std::uint8_t> can_source_;
};

}  // namespace plankton
