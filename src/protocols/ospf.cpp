#include "protocols/ospf.hpp"

#include <algorithm>

namespace plankton {

OspfProcess::OspfProcess(const Network& net, Prefix prefix,
                         std::vector<NodeId> origins)
    : net_(net), prefix_(prefix), origins_(std::move(origins)) {
  for (NodeId n = 0; n < net.devices.size(); ++n) {
    if (net.device(n).ospf.enabled) members_.push_back(n);
  }
  up_peers_.resize(net.topo.node_count());
  dist_.assign(net.topo.node_count(), kInfiniteCost);
}

RouteId OspfProcess::origin_route(NodeId origin, ModelContext& ctx) const {
  (void)origin;
  Route r;
  r.path = kEmptyPath;
  r.metric = 0;
  return ctx.routes.intern(std::move(r));
}

void OspfProcess::prepare(const FailureSet& failures, ModelContext& ctx) {
  (void)ctx;
  for (auto& peers : up_peers_) peers.clear();
  for (const NodeId n : members_) {
    for (const auto& adj : net_.topo.neighbors(n)) {
      if (failures.is_failed(adj.link)) continue;
      if (!net_.device(adj.neighbor).ospf.enabled) continue;
      up_peers_[n].push_back(adj.neighbor);
    }
  }
  dist_ = shortest_path_costs(net_.topo, origins_, failures);
  // Non-OSPF devices must not appear on SPF paths; recompute over the
  // OSPF-only subgraph when the network mixes protocol domains.
  bool mixed = false;
  for (NodeId n = 0; n < net_.devices.size(); ++n) {
    if (!net_.device(n).ospf.enabled) {
      mixed = true;
      break;
    }
  }
  if (mixed) {
    FailureSet masked = failures;
    for (LinkId l = 0; l < net_.topo.link_count(); ++l) {
      const Link& link = net_.topo.link(l);
      if (!net_.device(link.a).ospf.enabled || !net_.device(link.b).ospf.enabled) {
        masked.fail(l);
      }
    }
    dist_ = shortest_path_costs(net_.topo, origins_, masked);
  }
}

RouteId OspfProcess::advertised(NodeId p, NodeId n, RouteId peer_route,
                                ModelContext& ctx) const {
  if (peer_route == kNoRoute) return kNoRoute;
  const Route& rp = ctx.routes.get(peer_route);
  if (ctx.paths.contains(rp.path, n)) return kNoRoute;  // loop rejection
  const LinkId link = net_.topo.find_link(n, p);
  if (link == kNoLink) return kNoRoute;
  Route r;
  r.path = ctx.paths.cons(p, rp.path);
  const std::uint64_t metric =
      std::uint64_t{rp.metric} + net_.topo.link(link).cost_from(n);
  if (metric >= kInfiniteCost) return kNoRoute;
  r.metric = static_cast<std::uint32_t>(metric);
  return ctx.routes.intern(std::move(r));
}

int OspfProcess::compare(NodeId n, RouteId a, RouteId b,
                         const ModelContext& ctx) const {
  (void)n;
  if (a == b) return 0;
  if (a == kNoRoute) return -1;
  if (b == kNoRoute) return 1;
  const Route& ra = ctx.routes.get(a);
  const Route& rb = ctx.routes.get(b);
  if (ra.metric != rb.metric) return ra.metric < rb.metric ? 1 : -1;
  return 0;
}

bool OspfProcess::valid(NodeId n, RouteId current, const StateView& s,
                        ModelContext& ctx) const {
  // A multipath route stays valid while every ECMP member still justifies
  // the route's metric with its own current best route.
  if (current == kNoRoute) return true;
  // Copy the fields before calling advertised(): interning may reallocate
  // the route table and invalidate references into it.
  const PathId path = ctx.routes.get(current).path;
  const std::uint32_t metric = ctx.routes.get(current).metric;
  if (path == kEmptyPath) return true;
  std::vector<NodeId>& hops = valid_hops_;
  ctx.routes.nexthops(current, ctx.paths, hops);
  for (const NodeId hop : hops) {
    const RouteId adv = advertised(hop, n, s.best(hop), ctx);
    if (adv == kNoRoute || ctx.routes.get(adv).metric != metric) return false;
  }
  return true;
}

RouteId OspfProcess::merge(NodeId n, std::span<const RouteId> updates,
                           ModelContext& ctx) const {
  (void)n;
  RouteId best = kNoRoute;
  std::uint32_t best_metric = kInfiniteCost;
  for (const RouteId u : updates) {
    if (u == kNoRoute) continue;
    const std::uint32_t m = ctx.routes.get(u).metric;
    if (best == kNoRoute || m < best_metric) {
      best = u;
      best_metric = m;
    }
  }
  if (best == kNoRoute) return kNoRoute;
  // Fast path: when every best-metric update has the best update's next hop
  // and that route carries no ECMP set, the merge is the best route itself
  // (routes are interned by content), with no copy and no table probe.
  const Route& best_route = ctx.routes.get(best);
  if (best_route.ecmp.empty()) {
    const NodeId best_hop = ctx.paths.head(best_route.path);
    bool one_hop = true;
    for (const RouteId u : updates) {
      if (u == kNoRoute || ctx.routes.get(u).metric != best_metric) continue;
      if (ctx.paths.head(ctx.routes.get(u).path) != best_hop) {
        one_hop = false;
        break;
      }
    }
    if (one_hop) return best;
  }
  std::vector<NodeId>& hops = merge_hops_;
  hops.clear();
  for (const RouteId u : updates) {
    if (u == kNoRoute || ctx.routes.get(u).metric != best_metric) continue;
    hops.push_back(ctx.paths.head(ctx.routes.get(u).path));
  }
  std::sort(hops.begin(), hops.end());
  hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
  // Build the candidate in a reusable scratch route, then intern only when
  // it is genuinely new — in steady state every merge result is already in
  // the table and this path allocates nothing.
  Route& merged = merge_scratch_;
  merged = ctx.routes.get(best);
  if (hops.size() > 1) {
    // Keep the representative path of the lowest-id next hop so the merged
    // route is canonical regardless of update order.
    for (const RouteId u : updates) {
      if (u == kNoRoute || ctx.routes.get(u).metric != best_metric) continue;
      if (ctx.paths.head(ctx.routes.get(u).path) == hops.front()) {
        merged = ctx.routes.get(u);
        break;
      }
    }
    merged.ecmp.assign(hops.begin(), hops.end());
  } else {
    merged.ecmp.clear();
  }
  const RouteId existing = ctx.routes.find(merged);
  if (existing != kNoRoute) return existing;
  return ctx.routes.intern(merged);
}

NodeId OspfProcess::deterministic_node(std::span<const NodeId> enabled,
                                       const StateView& s, ModelContext& ctx,
                                       bool& tie_ok) const {
  (void)s;
  (void)ctx;
  tie_ok = false;
  // Pick the enabled node closest to the origin set; the SPF-order argument
  // (see DESIGN.md / paper §4.1.2) makes its merged update final.
  NodeId pick = kNoNode;
  std::uint32_t pick_dist = kInfiniteCost;
  for (const NodeId n : enabled) {
    if (dist_[n] < pick_dist || (dist_[n] == pick_dist && n < pick)) {
      pick = n;
      pick_dist = dist_[n];
    }
  }
  return pick;
}

}  // namespace plankton
