#include "protocols/ospf.hpp"

#include <algorithm>
#include <functional>

namespace plankton {

OspfProcess::OspfProcess(const Network& net, Prefix prefix,
                         std::vector<NodeId> origins)
    : prefix_(prefix), origins_(std::move(origins)) {
  const std::size_t nodes = net.topo.node_count();
  // Every link from a member to an OSPF neighbor, in neighbors() order, so
  // that prepare() only filters by the failure set. Non-members own none.
  session_begin_.assign(nodes + 1, 0);
  parallel_.assign(nodes, 0);
  for (NodeId n = 0; n < nodes; ++n) {
    session_begin_[n] = static_cast<std::uint32_t>(sessions_.size());
    if (!net.device(n).ospf.enabled) continue;
    members_.push_back(n);
    for (const auto& adj : net.topo.neighbors(n)) {
      if (!net.device(adj.neighbor).ospf.enabled) continue;
      const Link& l = net.topo.link(adj.link);
      for (std::size_t i = session_begin_[n]; i < sessions_.size(); ++i) {
        if (sessions_[i].peer == adj.neighbor) parallel_[n] = 1;
      }
      sessions_.push_back({adj.neighbor, adj.link, l.cost_from(n),
                           l.cost_from(adj.neighbor)});
    }
  }
  session_begin_[nodes] = static_cast<std::uint32_t>(sessions_.size());
  up_peers_.resize(nodes);
  up_costs_.resize(nodes);
  dist_.assign(nodes, kInfiniteCost);
  spf_order_.reserve(nodes);
  heap_.reserve(nodes);
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
  for (const NodeId n : members_) {
    std::vector<NodeId>& peers = up_peers_[n];
    std::vector<std::uint32_t>& costs = up_costs_[n];
    peers.clear();
    costs.clear();
    for (std::uint32_t i = session_begin_[n]; i < session_begin_[n + 1]; ++i) {
      const Session& s = sessions_[i];
      if (failures.is_failed(s.link)) continue;
      if (parallel_[n] != 0) {
        const auto it = std::find(peers.begin(), peers.end(), s.peer);
        if (it != peers.end()) {
          std::uint32_t& c = costs[static_cast<std::size_t>(it - peers.begin())];
          c = std::min(c, s.cost_out);
          continue;
        }
      }
      peers.push_back(s.peer);
      costs.push_back(s.cost_out);
    }
  }
  // Dijkstra over the live sessions, with a (dist, id) min-heap whose
  // buffers outlive the failure set. A node is settled when its entry leaves
  // the heap; entries left behind by a later improvement are skipped. Only
  // members own sessions, so non-OSPF devices never appear on SPF paths.
  std::fill(dist_.begin(), dist_.end(), kInfiniteCost);
  spf_order_.clear();
  heap_.clear();
  for (const NodeId o : origins_) {
    if (dist_[o] == 0) continue;  // anycast origin listed twice
    dist_[o] = 0;
    heap_.emplace_back(0u, o);
  }
  const std::greater<> later;
  std::make_heap(heap_.begin(), heap_.end(), later);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d != dist_[u]) continue;
    spf_order_.push_back(u);
    for (std::uint32_t i = session_begin_[u]; i < session_begin_[u + 1]; ++i) {
      const Session& s = sessions_[i];
      if (failures.is_failed(s.link)) continue;
      // Costs accumulate on the forwarding node's outgoing interface: the
      // peer's cost towards u.
      const std::uint64_t cand = std::uint64_t{d} + s.cost_in;
      if (cand < dist_[s.peer]) {
        dist_[s.peer] = static_cast<std::uint32_t>(cand);
        heap_.emplace_back(dist_[s.peer], s.peer);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
}

std::uint32_t OspfProcess::session_cost(NodeId n, NodeId p) const {
  const std::vector<NodeId>& peers = up_peers_[n];
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i] == p) return up_costs_[n][i];
  }
  return kInfiniteCost;
}

RouteId OspfProcess::advertised(NodeId p, NodeId n, RouteId peer_route,
                                ModelContext& ctx) const {
  if (peer_route == kNoRoute) return kNoRoute;
  const Route& rp = ctx.routes.get(peer_route);
  if (ctx.paths.contains(rp.path, n)) return kNoRoute;  // loop rejection
  const std::uint64_t metric = std::uint64_t{rp.metric} + session_cost(n, p);
  if (metric >= kInfiniteCost) return kNoRoute;  // also: no live session
  Route r;
  r.path = ctx.paths.cons(p, rp.path);
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
