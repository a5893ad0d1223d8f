// The abstract control-plane protocol interface consumed by the RPVP engine.
//
// Following the paper (§3.4), OSPF, BGP and static routing are all modeled on
// top of one Reduced Path Vector Protocol. A RoutingProcess supplies the
// extended-SPVP abstractions for one (prefix, protocol) execution:
//   - origins and their initial routes,
//   - the peering relation under a failure set,
//   - advertised(): the composition import ∘ export applied to a peer's
//     current best route (RPVP polls peers instead of passing messages),
//   - compare(): the node's ranking function (a partial order: 0 means tied,
//     which the engine resolves non-deterministically — age-based
//     tie-breaking),
//   - valid(): RPVP's invalid(n) predicate,
//   - deterministic-node detection (§4.1.2) as a per-protocol heuristic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "config/network.hpp"
#include "protocols/route.hpp"

namespace plankton {

/// Resolves information produced by upstream PEC runs (paper §3.2): IGP
/// costs and next hops toward loopback addresses, used by iBGP ranking and
/// recursive next-hop resolution. One resolver corresponds to one converged
/// upstream outcome under one coordinated failure set.
class UpstreamResolver {
 public:
  virtual ~UpstreamResolver() = default;

  /// IGP cost from `from` to the device owning `target` (kInfiniteCost when
  /// unreachable or unknown).
  [[nodiscard]] virtual std::uint32_t igp_cost(NodeId from, IpAddr target) const = 0;

  /// Data-plane next hops at `from` for packets destined to `target`.
  [[nodiscard]] virtual std::span<const NodeId> nexthops_towards(
      NodeId from, IpAddr target) const = 0;

  /// Identity of this upstream outcome, mixed into state hashes so converged
  /// states reached under different upstream outcomes are never conflated.
  [[nodiscard]] virtual std::uint64_t outcome_hash() const = 0;
};

/// Shared mutable interning tables + immutable environment for one
/// exploration.
struct ModelContext {
  const Network* net = nullptr;
  PathTable paths;
  RouteTable routes;
  const UpstreamResolver* upstream = nullptr;  ///< may be null
};

/// Read-only view of the per-node best routes of the running process.
class StateView {
 public:
  explicit StateView(std::span<const RouteId> routes) : routes_(routes) {}
  [[nodiscard]] RouteId best(NodeId n) const { return routes_[n]; }
  [[nodiscard]] bool committed(NodeId n) const { return routes_[n] != kNoRoute; }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  std::span<const RouteId> routes_;
};

class RoutingProcess {
 public:
  virtual ~RoutingProcess() = default;

  [[nodiscard]] virtual Protocol protocol() const = 0;

  /// Nodes that participate in this process (others are never enabled).
  /// Must be sorted ascending by NodeId: the incremental expand path
  /// (rpvp/Explorer + engine/active_set.hpp) enumerates enabled nodes in
  /// ascending order and relies on that matching members() order so the
  /// optimized exploration is bit-identical to the full rescan.
  [[nodiscard]] virtual const std::vector<NodeId>& members() const = 0;

  /// Nodes that originate the prefix; RPVP initializes them with
  /// origin_route() and keeps their best path pinned (best-path(o) = ε).
  [[nodiscard]] virtual const std::vector<NodeId>& origins() const = 0;
  [[nodiscard]] virtual RouteId origin_route(NodeId origin, ModelContext& ctx) const = 0;

  /// Called once per failure set before exploration of this process starts;
  /// protocols precompute session liveness, SPF trees, heuristic bounds here.
  virtual void prepare(const FailureSet& failures, ModelContext& ctx) = 0;

  /// Peers of `n` whose sessions are up under the prepared failure set.
  [[nodiscard]] virtual std::span<const NodeId> peers(NodeId n) const = 0;

  /// importₙ,ₚ(exportₚ,ₙ(peer_route)) — the route `n` would adopt from peer
  /// `p`, or kNoRoute when filtered/rejected.
  ///
  /// Purity contract, binding on every process (relied on by the
  /// explorer's AdCache memoization, rpvp/ad_cache.hpp, by the POR
  /// footprints built from peers(), engine/independence.hpp, and by its
  /// undo(), which restores the node statuses logged at apply() instead of
  /// recomputing them; that is exact only because, under this contract, a
  /// status is a function of the RIB entries alone): between two prepare()
  /// calls and for a fixed ctx.upstream binding, the result is a pure
  /// function of (p, n, peer_route) — same inputs, same interned RouteId, no
  /// observable side effects beyond interning that same route/path. In
  /// particular advertised(p, n, kNoRoute) must be kNoRoute (⊥ in, ⊥ out),
  /// and any dependence on upstream PEC outcomes (e.g. iBGP IGP costs /
  /// next-hop resolvability) must go through ctx.upstream only, so that a
  /// cache keyed per (failure set, upstream outcome) generation is sound.
  [[nodiscard]] virtual RouteId advertised(NodeId p, NodeId n, RouteId peer_route,
                                           ModelContext& ctx) const = 0;

  /// Ranking at n: >0 if `a` is preferred over `b`, <0 if `b` over `a`,
  /// 0 when tied (non-deterministic, e.g. BGP age-based tie-breaking).
  /// kNoRoute ranks below everything.
  [[nodiscard]] virtual int compare(NodeId n, RouteId a, RouteId b,
                                    const ModelContext& ctx) const = 0;

  /// RPVP invalid(n): does n's current best route remain justified by its
  /// next hop's (or ECMP set's) current state?
  [[nodiscard]] virtual bool valid(NodeId n, RouteId current, const StateView& s,
                                   ModelContext& ctx) const;

  /// Can `from` ever transmit new routing information to `to`? Used by the
  /// decision-independence reduction (§4.1.3): nodes with no possible
  /// information flow between them (in either direction) may be explored in
  /// a fixed order. Default: always possible. BGP refines this: a node with
  /// neither an origin role nor an eBGP session can never advertise over
  /// iBGP (no iBGP re-advertisement).
  [[nodiscard]] virtual bool can_transmit(NodeId from, NodeId to) const {
    (void)from;
    (void)to;
    return true;
  }

  /// True when tied best updates are merged into one multipath route instead
  /// of branching (OSPF ECMP — the paper's special-case deviation, §3.4.2).
  [[nodiscard]] virtual bool merge_equal_updates() const { return false; }

  /// Merges tied updates into a single route (only called when
  /// merge_equal_updates() is true).
  [[nodiscard]] virtual RouteId merge(NodeId n, std::span<const RouteId> updates,
                                      ModelContext& ctx) const;

  /// Deterministic-node heuristic (§4.1.2). Given the current state, returns
  /// a node from `enabled` whose next update provably appears in every
  /// converged state reachable from here, or kNoNode. May also nominate a
  /// node all of whose potential winners are among its current updates
  /// (`tie_ok` output — the engine then branches only over that node's tied
  /// updates; Fig. 6 steps 4–5).
  [[nodiscard]] virtual NodeId deterministic_node(std::span<const NodeId> enabled,
                                                  const StateView& s,
                                                  ModelContext& ctx,
                                                  bool& tie_ok) const {
    (void)enabled;
    (void)s;
    (void)ctx;
    tie_ok = false;
    return kNoNode;
  }
};

}  // namespace plankton
