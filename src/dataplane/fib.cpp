#include "dataplane/fib.hpp"

#include <algorithm>

#include "netbase/hash.hpp"

namespace plankton {
namespace {

/// The next hops of one FIB candidate, referenced instead of copied: a span
/// into an interned route's ECMP set or into an upstream outcome's FIB (both
/// outlive the build), or one node.
struct Hops {
  std::span<const NodeId> many;
  NodeId one = kNoNode;

  [[nodiscard]] bool empty() const { return one == kNoNode && many.empty(); }
  void copy_to(std::vector<NodeId>& out) const {
    if (one != kNoNode) {
      out.assign(1, one);
    } else {
      out.assign(many.begin(), many.end());
    }
  }
};

/// RouteTable::nexthops without the copy.
Hops route_hops(const ModelContext& ctx, RouteId r) {
  const Route& route = ctx.routes.get(r);
  if (!route.ecmp.empty()) return Hops{route.ecmp, kNoNode};
  if (route.path != kNoPath && route.path != kEmptyPath) {
    return Hops{{}, ctx.paths.head(route.path)};
  }
  return {};
}

struct Candidate {
  bool installed = false;
  std::uint8_t ad = 255;
  FwdKind kind = FwdKind::kDrop;
  Hops hops;
  Protocol source = Protocol::kConnected;
};

void consider(Candidate& best, std::uint8_t ad, FwdKind kind, Hops hops,
              Protocol source) {
  if (best.installed && best.ad <= ad) return;
  best.installed = true;
  best.ad = ad;
  best.kind = kind;
  best.hops = hops;
  best.source = source;
}

/// Finds the best protocol (non-static) route for node n in this PEC:
/// used to resolve recursive static next hops that point inside the PEC.
Hops protocol_nexthops_in_pec(const Network& net, const Pec& pec, NodeId n,
                              std::span<const TaskRib> ribs,
                              const ModelContext& ctx) {
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    for (const auto& rib : ribs) {
      if (rib.prefix_idx != pi) continue;
      const RouteId r = rib.routes[n];
      if (r == kNoRoute) continue;
      const Route& route = ctx.routes.get(r);
      if (route.path == kEmptyPath) return {};  // delivered locally
      Hops hops;
      if (route.learned_ibgp && ctx.upstream != nullptr) {
        hops.many = ctx.upstream->nexthops_towards(
            n, net.device(route.egress).loopback);
      } else {
        hops = route_hops(ctx, r);
      }
      if (!hops.empty()) return hops;
    }
  }
  return {};
}

}  // namespace

std::size_t DataPlane::bytes() const {
  std::size_t total = entries.size() * sizeof(FibEntry);
  for (const auto& e : entries) total += e.nexthops.capacity() * sizeof(NodeId);
  return total;
}

void build_entry(const Network& net, const Pec& pec, const FailureSet& failures,
                 std::span<const TaskRib> ribs, const ModelContext& ctx, NodeId n,
                 FibEntry& entry) {
  entry.kind = FwdKind::kDrop;  // default: drop
  entry.nexthops.clear();
  entry.source = Protocol::kConnected;
  entry.prefix_idx = 0xff;
  // Longest-prefix match: prefixes are sorted most-specific first.
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    const PecPrefix& pp = pec.prefixes[pi];
    Candidate best;

    // Local delivery: the node originates the prefix (or owns the loopback).
    const bool origin =
        std::find(pp.ospf_origins.begin(), pp.ospf_origins.end(), n) !=
            pp.ospf_origins.end() ||
        std::find(pp.bgp_origins.begin(), pp.bgp_origins.end(), n) !=
            pp.bgp_origins.end() ||
        (pp.prefix.length() == 32 && net.device(n).loopback == pp.prefix.addr());
    if (origin) {
      consider(best, admin_distance(Protocol::kConnected), FwdKind::kLocal, {},
               Protocol::kConnected);
    }

    // Static routes targeting exactly this prefix.
    for (const auto& [dev, idx] : pp.static_routes) {
      if (dev != n) continue;
      const StaticRoute& sr = net.device(n).statics[idx];
      if (sr.drop) {
        consider(best, admin_distance(Protocol::kStatic), FwdKind::kDrop, {},
                 Protocol::kStatic);
        continue;
      }
      if (sr.via_neighbor != kNoNode) {
        const LinkId l = net.topo.find_link(n, sr.via_neighbor);
        if (l != kNoLink && !failures.is_failed(l)) {
          consider(best, admin_distance(Protocol::kStatic), FwdKind::kForward,
                   Hops{{}, sr.via_neighbor}, Protocol::kStatic);
        }
        continue;
      }
      if (sr.via_ip) {
        Hops hops;
        if (*sr.via_ip >= pec.lo && *sr.via_ip <= pec.hi) {
          // Self-loop dependency: resolve through this PEC's own
          // protocol routes (never through statics, avoiding recursion).
          hops = protocol_nexthops_in_pec(net, pec, n, ribs, ctx);
        } else if (ctx.upstream != nullptr) {
          hops.many = ctx.upstream->nexthops_towards(n, *sr.via_ip);
        }
        if (!hops.empty()) {
          consider(best, admin_distance(Protocol::kStatic), FwdKind::kForward,
                   hops, Protocol::kStatic);
        }
      }
    }

    // Protocol routes from the per-prefix RPVP phases.
    for (const auto& rib : ribs) {
      if (rib.prefix_idx != pi) continue;
      const RouteId r = rib.routes[n];
      if (r == kNoRoute) continue;
      const Route& route = ctx.routes.get(r);
      if (route.path == kEmptyPath) continue;  // origin: handled as local
      Protocol proto = rib.proto;
      if (proto == Protocol::kEbgp && route.learned_ibgp) proto = Protocol::kIbgp;
      Hops hops;
      if (route.learned_ibgp) {
        if (ctx.upstream != nullptr) {
          hops.many = ctx.upstream->nexthops_towards(
              n, net.device(route.egress).loopback);
        }
        if (hops.empty()) continue;  // unresolvable iBGP next hop
      } else {
        hops = route_hops(ctx, r);
        if (hops.empty()) continue;
      }
      consider(best, admin_distance(proto), FwdKind::kForward, hops, proto);
    }

    if (best.installed) {
      entry.kind = best.kind;
      best.hops.copy_to(entry.nexthops);
      entry.source = best.source;
      entry.prefix_idx = static_cast<std::uint8_t>(pi);
      break;  // LPM: most specific installed prefix wins
    }
  }
}

void build_dataplane(const Network& net, const Pec& pec, const FailureSet& failures,
                     std::span<const TaskRib> ribs, const ModelContext& ctx,
                     DataPlane& dp) {
  dp.entries.resize(net.topo.node_count());
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    build_entry(net, pec, failures, ribs, ctx, n, dp.entries[n]);
  }
}

DataPlane build_dataplane(const Network& net, const Pec& pec,
                          const FailureSet& failures, std::span<const TaskRib> ribs,
                          const ModelContext& ctx) {
  DataPlane dp;
  build_dataplane(net, pec, failures, ribs, ctx, dp);
  return dp;
}

std::uint64_t fib_entry_term(NodeId n, const FibEntry& e) {
  std::uint64_t h = hash_combine(
      hash_mix(n), (static_cast<std::uint64_t>(e.kind) << 32) | e.nexthops.size());
  for (const NodeId next : e.nexthops) h = hash_combine(h, next);
  return h;
}

void WalkMemo::fit(std::size_t nodes) {
  if (memo_[0].size() == nodes) return;
  for (int c = 0; c < 2; ++c) {
    memo_[c].resize(nodes);
    entered_[c].reset(nodes);
    finished_[c].reset(nodes);
  }
  frontier_.reserve(nodes);
  seen_at_.resize(nodes);
  queued_.reset(nodes);
  interesting_.reset(nodes);
}

void WalkMemo::begin(const DataPlane& dp, std::span<const NodeId> waypoints) {
  fit(dp.entries.size());
  dp_ = &dp;
  waypoints_ = waypoints;
  for (int c = 0; c < 2; ++c) {
    entered_[c].begin();
    finished_[c].begin();
  }
}

const WalkMemo::NodeWalk& WalkMemo::run(NodeId n, bool crossed) {
  if (!crossed && std::find(waypoints_.begin(), waypoints_.end(), n) !=
                      waypoints_.end()) {
    crossed = true;
  }
  const int c = crossed ? 1 : 0;
  NodeWalk& w = memo_[c][n];
  if (finished_[c].marked(n)) return w;
  if (entered_[c].marked(n)) {
    // Back edge: forwarding loop.
    w.looped = true;
    w.delivered_all = false;
    return w;
  }
  entered_[c].mark(n);
  w = NodeWalk{};
  const FibEntry& e = dp_->at(n);
  if (e.kind == FwdKind::kLocal) {
    w.delivered_any = true;
    if (!waypoints_.empty() && !crossed) w.waypoint_ok = false;
  } else if (e.kind == FwdKind::kDrop || e.nexthops.empty()) {
    w.dropped = true;
    w.delivered_all = false;
  } else {
    for (const NodeId next : e.nexthops) {
      const NodeWalk sub = run(next, crossed);  // copy: memo may be the gray self
      w.delivered_all = w.delivered_all && sub.delivered_all;
      w.delivered_any = w.delivered_any || sub.delivered_any;
      w.dropped = w.dropped || sub.dropped;
      w.looped = w.looped || sub.looped;
      w.waypoint_ok = w.waypoint_ok && sub.waypoint_ok;
      w.hops = std::max(w.hops, sub.hops + 1);
    }
  }
  finished_[c].mark(n);
  return w;
}

WalkStats WalkMemo::walk(NodeId src) {
  const NodeWalk w = run(src, false);
  WalkStats out;
  out.delivered_all = w.delivered_all && !w.looped;
  out.delivered_any = w.delivered_any;
  out.dropped = w.dropped;
  out.looped = w.looped;
  out.max_hops = w.hops;
  out.hit_waypoint_all = w.waypoint_ok;
  return out;
}

std::uint64_t WalkMemo::signature(const DataPlane& dp,
                                  std::span<const NodeId> sources,
                                  std::span<const NodeId> interesting) {
  if (sources.empty() && interesting.empty()) {
    // Every node's BFS reads its own kind and next hops at depth 0 and 1,
    // so the all-sources signature is a function of the entries: sum their
    // terms in one pass.
    std::uint64_t sum = 0;
    for (NodeId n = 0; n < dp.entries.size(); ++n) {
      sum += fib_entry_term(n, dp.entries[n]);
    }
    return sum;
  }
  std::uint64_t sig = 0x2545f4914f6cdd1dull;
  fit(dp.entries.size());
  interesting_.begin();
  for (const NodeId n : interesting) interesting_.mark(n);
  const bool all_interesting = interesting.empty();

  // Per source: BFS the forwarding DAG recording (depth, interesting node)
  // and terminal kinds. Two converged states with equal signatures have the
  // same source paths lengths and interesting-node positions (§3.5). A node
  // not stamped in the source's generation is unseen.
  const std::size_t walks = sources.empty() ? dp.entries.size() : sources.size();
  for (std::size_t i = 0; i < walks; ++i) {
    const NodeId src = sources.empty() ? static_cast<NodeId>(i) : sources[i];
    frontier_.clear();
    queued_.begin();
    frontier_.emplace_back(src, 0);
    queued_.mark(src);
    seen_at_[src] = 0;
    sig = hash_combine(sig, src + 1);
    std::size_t cursor = 0;
    while (cursor < frontier_.size()) {
      const auto [n, depth] = frontier_[cursor++];
      const FibEntry& e = dp.at(n);
      if (all_interesting || interesting_.marked(n)) {
        sig = hash_combine(sig, (std::uint64_t{depth} << 32) | n);
      }
      sig = hash_combine(sig, static_cast<std::uint64_t>(e.kind) + (depth << 8));
      if (e.kind != FwdKind::kForward) continue;
      for (const NodeId next : e.nexthops) {
        // Already queued at this depth or an earlier one.
        if (queued_.marked(next) && seen_at_[next] <= depth + 1) continue;
        queued_.mark(next);
        seen_at_[next] = depth + 1;
        frontier_.emplace_back(next, depth + 1);
      }
    }
  }
  return sig;
}

WalkStats walk_from(const DataPlane& dp, NodeId src,
                    std::span<const NodeId> waypoints) {
  WalkMemo memo;
  return memo.walk_from(dp, src, waypoints);
}

}  // namespace plankton
