#include "protocols/bgp.hpp"

#include <algorithm>
#include <deque>

namespace plankton {
namespace {

struct MapResult {
  bool permit = true;
  std::optional<std::uint32_t> set_lp;
  std::uint8_t prepend = 0;
  CommunityBits add = 0;
};

bool clause_matches(const RouteMapClause& c, const Prefix& pfx,
                    CommunityBits comms, std::uint16_t as_len) {
  if (c.match.prefix) {
    if (c.match.prefix_mode == RouteMapMatch::PrefixMode::kExact) {
      if (*c.match.prefix != pfx) return false;
    } else {
      if (!c.match.prefix->covers(pfx)) return false;
    }
  }
  if (c.match.community && ((comms >> *c.match.community) & 1) == 0) return false;
  if (c.match.max_path_len && as_len > *c.match.max_path_len) return false;
  return true;
}

MapResult apply_map(const RouteMap& rm, const Prefix& pfx, CommunityBits comms,
                    std::uint16_t as_len) {
  for (const auto& c : rm.clauses) {
    if (!clause_matches(c, pfx, comms, as_len)) continue;
    MapResult r;
    r.permit = c.action.permit;
    r.set_lp = c.action.set_local_pref;
    r.prepend = c.action.prepend;
    if (c.action.add_community) r.add = CommunityBits{1} << *c.action.add_community;
    return r;
  }
  MapResult r;
  r.permit = rm.default_permit;
  return r;
}

/// Max local-pref `rm` could assign (conservative upper bound; 100 is the
/// protocol default that applies when no matching clause sets one).
std::uint32_t max_settable_lp(const RouteMap& rm) {
  std::uint32_t lp = 100;
  for (const auto& c : rm.clauses) {
    if (c.action.permit && c.action.set_local_pref) {
      lp = std::max(lp, *c.action.set_local_pref);
    }
  }
  return lp;
}

}  // namespace

BgpProcess::BgpProcess(const Network& net, Prefix prefix,
                       std::vector<NodeId> origins)
    : net_(net), prefix_(prefix), origins_(std::move(origins)) {
  for (NodeId n = 0; n < net.devices.size(); ++n) {
    if (net.device(n).bgp.has_value()) members_.push_back(n);
  }
  up_peers_.resize(net.topo.node_count());
  ibgp_metric_.resize(net.topo.node_count());
  min_as_len_.assign(net.topo.node_count(), kInfiniteCost);
  max_lp_in_.assign(net.topo.node_count(), 100);
  can_source_.assign(net.topo.node_count(), 0);
}

RouteId BgpProcess::origin_route(NodeId origin, ModelContext& ctx) const {
  Route r;
  r.path = kEmptyPath;
  r.local_pref = 100;
  r.as_path_len = 0;
  r.egress = origin;
  return ctx.routes.intern(std::move(r));
}

bool BgpProcess::session_up(NodeId a, NodeId b, const FailureSet& failures,
                            const ModelContext& ctx, bool ibgp) const {
  if (!ibgp) {
    const LinkId l = net_.topo.find_link(a, b);
    return l != kNoLink && !failures.is_failed(l);
  }
  if (ctx.upstream == nullptr) return true;  // no IGP context: assume up
  return ctx.upstream->igp_cost(a, net_.device(b).loopback) != kInfiniteCost &&
         ctx.upstream->igp_cost(b, net_.device(a).loopback) != kInfiniteCost;
}

void BgpProcess::prepare(const FailureSet& failures, ModelContext& ctx) {
  upstream_ = ctx.upstream;
  for (auto& v : up_peers_) v.clear();
  for (auto& v : ibgp_metric_) v.clear();
  global_max_lp_ = 100;

  std::fill(can_source_.begin(), can_source_.end(), 0);
  for (const NodeId o : origins_) can_source_[o] = 1;
  for (const NodeId n : members_) {
    const auto& bgp = *net_.device(n).bgp;
    for (const auto& s : bgp.sessions) {
      if (!session_up(n, s.peer, failures, ctx, s.ibgp)) continue;
      up_peers_[n].push_back(s.peer);
      std::uint32_t metric = 0;
      if (s.ibgp) {
        metric = ctx.upstream != nullptr
                     ? ctx.upstream->igp_cost(n, net_.device(s.peer).loopback)
                     : 0;
      } else {
        can_source_[n] = 1;  // can learn over eBGP, may re-export anywhere
      }
      ibgp_metric_[n].push_back(metric);
      max_lp_in_[n] = std::max(max_lp_in_[n], max_settable_lp(s.import));
    }
    global_max_lp_ = std::max(global_max_lp_, max_lp_in_[n]);
  }

  // Lower bound on achievable AS-path length: 0-1 BFS over live sessions
  // (an eBGP hop appends one ASN, an iBGP hop appends none). Conservative:
  // ignores filters (which can only remove paths) and prepending (which can
  // only lengthen them).
  std::fill(min_as_len_.begin(), min_as_len_.end(), kInfiniteCost);
  std::deque<NodeId> queue;
  for (const NodeId o : origins_) {
    min_as_len_[o] = 0;
    queue.push_back(o);
  }
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    const auto& bgp = *net_.device(n).bgp;
    for (std::size_t i = 0; i < up_peers_[n].size(); ++i) {
      const NodeId p = up_peers_[n][i];
      const auto* session = bgp.session_with(p);
      const std::uint32_t step = session->ibgp ? 0 : 1;
      if (min_as_len_[n] == kInfiniteCost) continue;
      const std::uint32_t cand = min_as_len_[n] + step;
      if (cand < min_as_len_[p]) {
        min_as_len_[p] = cand;
        if (step == 0) {
          queue.push_front(p);
        } else {
          queue.push_back(p);
        }
      }
    }
  }
}

RouteId BgpProcess::advertised(NodeId p, NodeId n, RouteId peer_route,
                               ModelContext& ctx) const {
  if (peer_route == kNoRoute) return kNoRoute;
  const Route rp = ctx.routes.get(peer_route);  // copy: table may rehash below
  const auto* sp = net_.device(p).bgp->session_with(n);  // export side (at p)
  const auto* sn = net_.device(n).bgp->session_with(p);  // import side (at n)
  if (sp == nullptr || sn == nullptr) return kNoRoute;
  const bool ibgp = sp->ibgp;
  // iBGP-learned routes are not re-advertised to iBGP peers (full mesh).
  if (ibgp && rp.learned_ibgp) return kNoRoute;
  if (ctx.paths.contains(rp.path, n)) return kNoRoute;  // loop rejection

  const MapResult ex = apply_map(sp->export_, prefix_, rp.communities, rp.as_path_len);
  if (!ex.permit) return kNoRoute;
  std::uint32_t lp = rp.local_pref;
  std::uint16_t as_len =
      static_cast<std::uint16_t>(rp.as_path_len + (ibgp ? 0 : 1) + ex.prepend);
  CommunityBits comms = rp.communities | ex.add;
  if (ex.set_lp) lp = *ex.set_lp;

  const MapResult im = apply_map(sn->import, prefix_, comms, as_len);
  if (!im.permit) return kNoRoute;
  if (!ibgp && !im.set_lp && !ex.set_lp) lp = 100;  // eBGP default on import
  if (im.set_lp) lp = *im.set_lp;
  comms |= im.add;
  as_len = static_cast<std::uint16_t>(as_len + im.prepend);

  Route r;
  r.path = ctx.paths.cons(p, rp.path);
  r.local_pref = lp;
  r.as_path_len = as_len;
  r.communities = comms;
  r.learned_ibgp = ibgp;
  r.egress = p;  // next-hop-self: the advertising peer is the resolution target
  if (ibgp) {
    if (ctx.upstream == nullptr) {
      r.metric = 0;
    } else {
      const std::uint32_t cost = ctx.upstream->igp_cost(n, net_.device(p).loopback);
      if (cost == kInfiniteCost) return kNoRoute;  // unresolvable next hop
      r.metric = cost;
    }
  }
  return ctx.routes.intern(std::move(r));
}

int BgpProcess::compare(NodeId n, RouteId a, RouteId b,
                        const ModelContext& ctx) const {
  (void)n;
  if (a == b) return 0;
  if (a == kNoRoute) return -1;
  if (b == kNoRoute) return 1;
  const BgpRank ra = bgp_rank(ctx.routes.get(a));
  const BgpRank rb = bgp_rank(ctx.routes.get(b));
  if (ra == rb) return 0;  // age-based tie: non-deterministic
  return ra > rb ? 1 : -1;
}

bool BgpProcess::can_transmit(NodeId from, NodeId to) const {
  const auto* session = net_.device(from).bgp->session_with(to);
  if (session == nullptr) return false;
  if (!session->ibgp) return true;
  return can_source_[from] != 0;  // iBGP-learned routes are not re-advertised
}

BgpRank BgpProcess::optimistic_rank(NodeId n, NodeId p) const {
  const auto* sn = net_.device(n).bgp->session_with(p);
  BgpRank r;
  if (sn->ibgp && can_source_[p] == 0) {
    return r;  // default rank (local_pref -1): p can never advertise to n
  }
  if (sn->ibgp) {
    // Carried local-pref can have been set anywhere in the network.
    r.local_pref = global_max_lp_;
    r.ebgp = 0;
    std::uint32_t metric = kInfiniteCost;
    if (upstream_ != nullptr) {
      metric = upstream_->igp_cost(n, net_.device(p).loopback);
    } else {
      metric = 0;
    }
    r.neg_metric = -std::int64_t{metric};
  } else {
    r.local_pref = max_settable_lp(sn->import);
    r.ebgp = 1;
    r.neg_metric = 0;
  }
  const std::uint32_t base = min_as_len_[p];
  const std::uint64_t len =
      base == kInfiniteCost ? kInfiniteCost
                            : std::uint64_t{base} + (sn->ibgp ? 0 : 1);
  r.neg_as_len = -static_cast<std::int64_t>(len);
  return r;
}

NodeId BgpProcess::deterministic_node(std::span<const NodeId> enabled,
                                      const StateView& s, ModelContext& ctx,
                                      bool& tie_ok) const {
  NodeId tie_candidate = kNoNode;
  for (const NodeId n : enabled) {
    const RouteId cur = s.best(n);
    // Current best updates and their shared top rank.
    BgpRank best_rank;
    bool have = false;
    int winners = 0;
    for (const NodeId p : up_peers_[n]) {
      const RouteId adv = advertised(p, n, s.best(p), ctx);
      if (adv == kNoRoute || compare(n, adv, cur, ctx) <= 0) continue;
      const BgpRank rk = bgp_rank(ctx.routes.get(adv));
      if (!have || rk > best_rank) {
        best_rank = rk;
        have = true;
        winners = 1;
      } else if (rk == best_rank) {
        ++winners;
      }
    }
    if (!have) continue;
    // Could an uncommitted peer ever deliver something ranked >= best_rank?
    bool beaten = false;
    bool tied_future = false;
    for (const NodeId p : up_peers_[n]) {
      if (s.committed(p)) continue;  // §4.1.1: committed peers never change
      const BgpRank opt = optimistic_rank(n, p);
      if (opt > best_rank) {
        beaten = true;
        break;
      }
      if (opt == best_rank) tied_future = true;
    }
    if (beaten || tied_future) continue;
    if (winners == 1) {
      tie_ok = false;
      return n;  // clear winner: fully deterministic
    }
    if (tie_candidate == kNoNode) tie_candidate = n;
  }
  tie_ok = tie_candidate != kNoNode;
  return tie_candidate;
}

}  // namespace plankton
