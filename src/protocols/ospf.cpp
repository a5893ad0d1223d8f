#include "protocols/ospf.hpp"

#include <algorithm>
#include <functional>

namespace plankton {

OspfProcess::OspfProcess(const Network& net, Prefix prefix,
                         std::vector<NodeId> origins)
    : topo_(net.topo), prefix_(prefix), origins_(std::move(origins)) {
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
      if (sessions_.back().cost_out == 0 || sessions_.back().cost_in == 0) {
        zero_cost_ = true;
      }
    }
  }
  session_begin_[nodes] = static_cast<std::uint32_t>(sessions_.size());

  // The no-failure SPF, the snapshot prepare() starts from.
  const FailureSet none;
  up_peers_.resize(nodes);
  up_costs_.resize(nodes);
  for (const NodeId n : members_) list_peers(n, none);
  dist_.resize(nodes);
  full_spf(none);
  parent_span_.assign(nodes, {0, 0});
  base_begin_.assign(nodes + 1, 0);
  for (NodeId n = 0; n < nodes; ++n) {
    base_begin_[n] = static_cast<std::uint32_t>(arcs_.size());
    if (dist_[n] != kInfiniteCost && !is_origin(n)) collect_parents(n);
  }
  base_begin_[nodes] = static_cast<std::uint32_t>(arcs_.size());
  base_arcs_ = base_begin_[nodes];
  base_dist_ = dist_;
  base_order_ = spf_order_;
  mark_.assign(nodes, 0);
}

RouteId OspfProcess::origin_route(NodeId origin, ModelContext& ctx) const {
  (void)origin;
  Route r;
  r.path = kEmptyPath;
  r.metric = 0;
  return ctx.routes.intern(std::move(r));
}

void OspfProcess::list_peers(NodeId n, const FailureSet& failures) {
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

bool OspfProcess::is_origin(NodeId n) const {
  return std::find(origins_.begin(), origins_.end(), n) != origins_.end();
}

void OspfProcess::full_spf(const FailureSet& failures) {
  std::fill(dist_.begin(), dist_.end(), kInfiniteCost);
  heap_.clear();
  for (const NodeId o : origins_) {
    if (dist_[o] == 0) continue;  // anycast origin listed twice
    dist_[o] = 0;
    heap_.emplace_back(0u, o);
  }
  spf_order_.clear();
  settle(failures, spf_order_);
}

void OspfProcess::settle(const FailureSet& failures, std::vector<NodeId>& out) {
  // A (dist, id) min-heap whose buffers outlive the failure set. A node is
  // settled when its entry leaves the heap; entries left behind by a later
  // improvement are skipped. Only members own sessions, so non-OSPF devices
  // never appear on SPF paths.
  const std::greater<> later;
  std::make_heap(heap_.begin(), heap_.end(), later);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d != dist_[u]) continue;
    out.push_back(u);
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

void OspfProcess::collect_parents(NodeId n) {
  const auto begin = static_cast<std::uint32_t>(arcs_.size());
  const std::vector<NodeId>& peers = up_peers_[n];
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const NodeId p = peers[i];
    if (dist_[p] != kInfiniteCost &&
        std::uint64_t{dist_[p]} + up_costs_[n][i] == dist_[n]) {
      arcs_.push_back(p);
    }
  }
  parent_span_[n] = {begin, static_cast<std::uint32_t>(arcs_.size())};
}

void OspfProcess::prepare(const FailureSet& failures, ModelContext& ctx) {
  (void)ctx;
  // Back to the snapshot: undo what the previous set changed.
  const FailureSet none;
  for (const NodeId n : touched_) {
    list_peers(n, none);
    mark_[n] = 0;
  }
  for (const NodeId n : moved_) {
    dist_[n] = base_dist_[n];
    mark_[n] = 0;
  }
  for (const NodeId n : patched_) {
    parent_span_[n] = {base_begin_[n], base_begin_[n + 1]};
  }
  touched_.clear();
  moved_.clear();
  patched_.clear();
  arcs_.resize(base_arcs_);

  // Only the ends of a failed link lose peers.
  for (const LinkId l : failures.ids()) {
    const Link& k = topo_.link(l);
    for (const NodeId n : {k.a, k.b}) {
      if (mark_[n] != 0) continue;
      mark_[n] = kEndpoint;
      touched_.push_back(n);
      list_peers(n, failures);
    }
  }
  if (failures.empty()) {
    spf_order_.assign(base_order_.begin(), base_order_.end());
    return;
  }

  if (zero_cost_) {
    // Zero-cost sessions: the whole computation, seeded from the origins
    // (docs/architecture.md "Incremental SPF" names this exception).
    full_spf(failures);
    for (NodeId n = 0; n < dist_.size(); ++n) {
      if (dist_[n] != base_dist_[n]) moved_.push_back(n);
      patched_.push_back(n);
      if (dist_[n] != kInfiniteCost && !is_origin(n)) {
        collect_parents(n);
      } else {
        parent_span_[n] = {0, 0};
      }
    }
    return;
  }

  // A node is cut off when none of its parent arcs survives: an arc dies
  // with its parent's distance (the parent is cut off) or with the live
  // session cost that realized it (a failed link, or the cheaper of two
  // parallel links). Parents settle before their children, so one scan of
  // the no-failure order decides every node. The others keep their
  // distances; those that lost an arc, and the endpoints, get new parent
  // lists below.
  for (const NodeId x : base_order_) {
    const std::uint32_t begin = base_begin_[x];
    const std::uint32_t end = base_begin_[x + 1];
    if (begin == end) continue;  // an origin
    const bool endpoint = mark_[x] == kEndpoint;
    bool kept = false;
    bool dropped = false;
    for (std::uint32_t i = begin; i < end; ++i) {
      const NodeId p = arcs_[i];
      const bool alive =
          mark_[p] != kMoved &&
          (!endpoint ||
           std::uint64_t{base_dist_[p]} + session_cost(x, p) == base_dist_[x]);
      kept = kept || alive;
      dropped = dropped || !alive;
    }
    if (!kept) {
      mark_[x] = kMoved;
      moved_.push_back(x);
      dist_[x] = kInfiniteCost;
    } else if (dropped || endpoint) {
      patched_.push_back(x);
    }
  }

  // Re-settle the cut-off nodes: Dijkstra seeded from the final distances
  // of their other live peers, a super-source. None of them can undercut a
  // node outside the set, so the relaxations change only set members.
  heap_.clear();
  for (const NodeId a : moved_) {
    std::uint64_t best = kInfiniteCost;
    for (std::uint32_t i = session_begin_[a]; i < session_begin_[a + 1]; ++i) {
      const Session& s = sessions_[i];
      if (failures.is_failed(s.link) || mark_[s.peer] == kMoved) continue;
      best = std::min(best, std::uint64_t{dist_[s.peer]} + s.cost_out);
    }
    if (best >= kInfiniteCost) continue;
    dist_[a] = static_cast<std::uint32_t>(best);
    heap_.emplace_back(dist_[a], a);
  }
  resettled_.clear();
  settle(failures, resettled_);

  // Both orders are ascending (dist, id): merge them.
  spf_order_.clear();
  std::size_t next = 0;
  const auto before = [this](NodeId a, NodeId b) {
    return dist_[a] != dist_[b] ? dist_[a] < dist_[b] : a < b;
  };
  for (const NodeId x : base_order_) {
    if (mark_[x] == kMoved) continue;
    while (next < resettled_.size() && before(resettled_[next], x)) {
      spf_order_.push_back(resettled_[next++]);
    }
    spf_order_.push_back(x);
  }
  spf_order_.insert(spf_order_.end(),
                    resettled_.begin() + static_cast<std::ptrdiff_t>(next),
                    resettled_.end());

  for (const NodeId x : patched_) {
    if (mark_[x] == kEndpoint) {
      collect_parents(x);  // its live peers may have changed order too
      continue;
    }
    const auto begin = static_cast<std::uint32_t>(arcs_.size());
    for (std::uint32_t i = base_begin_[x]; i < base_begin_[x + 1]; ++i) {
      const NodeId p = arcs_[i];
      if (mark_[p] != kMoved) arcs_.push_back(p);
    }
    parent_span_[x] = {begin, static_cast<std::uint32_t>(arcs_.size())};
  }
  for (const NodeId a : moved_) {
    patched_.push_back(a);
    if (dist_[a] != kInfiniteCost) {
      collect_parents(a);
    } else {
      parent_span_[a] = {0, 0};
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
