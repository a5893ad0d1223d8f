#include "policy/policy.hpp"

#include <algorithm>

namespace plankton {
namespace {

/// Runs `ok(s)` for every source, or for every node when `sources` is empty,
/// until one returns false; returns whether all passed. Allocates nothing.
template <class Ok>
bool all_sources(std::span<const NodeId> sources, const ConvergedView& view,
                 Ok&& ok) {
  if (!sources.empty()) {
    for (const NodeId s : sources) {
      if (!ok(s)) return false;
    }
    return true;
  }
  for (NodeId s = 0; s < view.net.topo.node_count(); ++s) {
    if (!ok(s)) return false;
  }
  return true;
}

}  // namespace

ReachabilityPolicy::ReachabilityPolicy(std::vector<NodeId> sources)
    : sources_(std::move(sources)) {}

bool ReachabilityPolicy::check(const ConvergedView& view, std::string& why) const {
  return all_sources(sources_, view, [&](NodeId s) {
    const WalkStats w = view.walks.walk_from(view.dp, s);
    if (!w.delivered_all || !w.delivered_any) {
      why = "traffic from " + view.net.topo.name(s) +
            (w.looped ? " loops" : w.dropped ? " is dropped" : " is not delivered");
      return false;
    }
    return true;
  });
}

WaypointPolicy::WaypointPolicy(std::vector<NodeId> sources,
                               std::vector<NodeId> waypoints)
    : sources_(std::move(sources)), waypoints_(std::move(waypoints)) {}

bool WaypointPolicy::check(const ConvergedView& view, std::string& why) const {
  return all_sources(sources_, view, [&](NodeId s) {
    const WalkStats w = view.walks.walk_from(view.dp, s, waypoints_);
    if (!w.delivered_all || !w.delivered_any) {
      why = "traffic from " + view.net.topo.name(s) + " is not delivered";
      return false;
    }
    if (!w.hit_waypoint_all) {
      why = "a path from " + view.net.topo.name(s) + " bypasses all waypoints";
      return false;
    }
    return true;
  });
}

bool LoopFreedomPolicy::check(const ConvergedView& view, std::string& why) const {
  // One generation for every node: `looped` is exact under a shared memo
  // (WalkMemo), so this names the lowest node a loop is reachable from in
  // O(nodes + forwarding edges).
  view.walks.begin(view.dp);
  for (NodeId s = 0; s < view.net.topo.node_count(); ++s) {
    if (view.walks.walk(s).looped) {
      why = "forwarding loop reachable from " + view.net.topo.name(s);
      return false;
    }
  }
  return true;
}

BlackholeFreedomPolicy::BlackholeFreedomPolicy(std::vector<NodeId> sources)
    : sources_(std::move(sources)) {}

bool BlackholeFreedomPolicy::check(const ConvergedView& view, std::string& why) const {
  return all_sources(sources_, view, [&](NodeId s) {
    if (view.walks.walk_from(view.dp, s).dropped) {
      why = "traffic from " + view.net.topo.name(s) + " hits a black hole";
      return false;
    }
    return true;
  });
}

BoundedPathLengthPolicy::BoundedPathLengthPolicy(std::vector<NodeId> sources,
                                                 std::uint32_t limit)
    : sources_(std::move(sources)), limit_(limit) {}

bool BoundedPathLengthPolicy::check(const ConvergedView& view, std::string& why) const {
  return all_sources(sources_, view, [&](NodeId s) {
    const WalkStats w = view.walks.walk_from(view.dp, s);
    if (w.looped) {
      why = "unbounded path (loop) from " + view.net.topo.name(s);
      return false;
    }
    if (w.max_hops > limit_) {
      why = "path from " + view.net.topo.name(s) + " has " +
            std::to_string(w.max_hops) + " hops (limit " + std::to_string(limit_) + ")";
      return false;
    }
    return true;
  });
}

MultipathConsistencyPolicy::MultipathConsistencyPolicy(std::vector<NodeId> sources)
    : sources_(std::move(sources)) {}

bool MultipathConsistencyPolicy::check(const ConvergedView& view,
                                       std::string& why) const {
  return all_sources(sources_, view, [&](NodeId s) {
    const WalkStats w = view.walks.walk_from(view.dp, s);
    if (w.delivered_any && !w.delivered_all) {
      why = "multipath divergence at " + view.net.topo.name(s) +
            ": some branches deliver, others do not";
      return false;
    }
    return true;
  });
}

PathConsistencyPolicy::PathConsistencyPolicy(std::vector<NodeId> group)
    : group_(std::move(group)) {}

namespace {
// Control-plane attributes and data-plane shape compared across the group.
struct ConsistencySignature {
  std::uint32_t metric = 0;
  std::uint32_t local_pref = 0;
  std::uint16_t as_len = 0;
  bool has_route = false;
  bool delivered = false;
  std::uint32_t hops = 0;
  friend bool operator==(const ConsistencySignature&,
                         const ConsistencySignature&) = default;
};
}  // namespace

bool PathConsistencyPolicy::check(const ConvergedView& view, std::string& why) const {
  if (group_.size() < 2) return true;
  using Signature = ConsistencySignature;
  auto signature_of = [&](NodeId n) {
    Signature sig;
    for (const auto& rib : view.ribs) {
      const RouteId r = rib.routes[n];
      if (r == kNoRoute) continue;
      const Route& route = view.ctx.routes.get(r);
      sig.has_route = true;
      sig.metric = route.metric;
      sig.local_pref = route.local_pref;
      sig.as_len = route.as_path_len;
      break;  // most specific prefix wins
    }
    const WalkStats w = view.walks.walk_from(view.dp, n);
    sig.delivered = w.delivered_all && w.delivered_any;
    sig.hops = w.max_hops;
    return sig;
  };
  const Signature first = signature_of(group_.front());
  for (std::size_t i = 1; i < group_.size(); ++i) {
    if (!(signature_of(group_[i]) == first)) {
      why = "devices " + view.net.topo.name(group_.front()) + " and " +
            view.net.topo.name(group_[i]) +
            " have diverging control/data plane state";
      return false;
    }
  }
  return true;
}

// -- make_policy spec rendering ----------------------------------------------
// These must stay in lockstep with the serve-layer grammar: the serve
// differential and the renumbering tests rebuild each policy by feeding this
// string back through make_policy, and a drifting renderer silently verifies
// a different property.

namespace {

/// " name name ...".
std::string names(const Network& net, std::span<const NodeId> nodes) {
  std::string out;
  for (const NodeId n : nodes) out += ' ' + net.topo.name(n);
  return out;
}

}  // namespace

// Reach and bounded take the all-nodes empty source list only implicitly,
// and waypoint names are comma-joined: those cases have no spec form.
std::string ReachabilityPolicy::spec(const Network& net) const {
  return sources_.empty() ? "" : "reach" + names(net, sources_);
}

std::string WaypointPolicy::spec(const Network& net) const {
  if (waypoints_.empty() || sources_.empty()) return "";
  std::string via = names(net, waypoints_);
  if (via.find(',') != std::string::npos) return "";
  std::replace(via.begin() + 1, via.end(), ' ', ',');
  return "waypoint" + via + names(net, sources_);
}

std::string LoopFreedomPolicy::spec(const Network&) const { return "loop"; }

std::string BlackholeFreedomPolicy::spec(const Network& net) const {
  return "blackhole" + names(net, sources_);
}

std::string BoundedPathLengthPolicy::spec(const Network& net) const {
  if (sources_.empty()) return "";
  return "bounded " + std::to_string(limit_) + names(net, sources_);
}

std::string MultipathConsistencyPolicy::spec(const Network& net) const {
  return "multipath" + names(net, sources_);
}

std::string PathConsistencyPolicy::spec(const Network& net) const {
  return group_.empty() ? "" : "consistency" + names(net, group_);
}

}  // namespace plankton
