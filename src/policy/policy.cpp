#include "policy/policy.hpp"

#include <algorithm>
#include <cassert>

#include "netbase/parse_int.hpp"

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

namespace {

/// The lowest node a forwarding loop is reachable from, or kNoNode. One
/// generation for every node: `looped` is exact under a shared memo
/// (WalkMemo), so this is O(nodes + forwarding edges).
NodeId lowest_looping_node(const ConvergedView& view) {
  view.walks.begin(view.dp);
  for (NodeId s = 0; s < view.net.topo.node_count(); ++s) {
    if (view.walks.walk(s).looped) return s;
  }
  return kNoNode;
}

}  // namespace

bool LoopFreedomPolicy::check(const ConvergedView& view, std::string& why) const {
  if (view.previous_held) {
    // The previous plane had no cycle, so a cycle of this one runs through
    // an entry that changed, and a walk from that entry finds it.
    view.walks.begin(view.dp);
    bool looped = false;
    for (const NodeId n : view.changed) {
      if (view.walks.walk(n).looped) {
        looped = true;
        break;
      }
    }
    if (!looped) {
      assert(lowest_looping_node(view) == kNoNode);
      return true;
    }
  }
  // Walk every node, so the message names the lowest node a loop is
  // reachable from whichever entries changed.
  const NodeId s = lowest_looping_node(view);
  if (s == kNoNode) return true;
  why = "forwarding loop reachable from " + view.net.topo.name(s);
  return false;
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

// -- make_policy and the spec renderers -------------------------------------
// The renderers must stay in lockstep with make_policy: the serve
// differential and the renumbering tests rebuild each policy by feeding
// spec() back through it, and a drifting renderer silently verifies a
// different property.

namespace {

std::vector<std::string_view> split_tokens(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == sep) ++i;
    const std::size_t start = i;
    while (i < s.size() && s[i] != sep) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

/// Appends the nodes named by `tokens`, each a comma-separated list that
/// names at least one node.
bool nodes_of(const Network& net, std::span<const std::string_view> tokens,
              std::vector<NodeId>& out, std::string& error) {
  for (const std::string_view token : tokens) {
    const auto list = split_tokens(token, ',');
    if (list.empty()) {
      error = "empty node list '" + std::string(token) + "'";
      return false;
    }
    for (const std::string_view name : list) {
      const auto id = net.find_device(name);
      if (!id) {
        error = "unknown node '" + std::string(name) + "'";
        return false;
      }
      out.push_back(*id);
    }
  }
  return true;
}

/// `head` followed by " name name ...", or "" when a name holds a comma,
/// which make_policy reads as a separator: such a policy has no spec form.
std::string spec_of(std::string head, const Network& net,
                    std::span<const NodeId> nodes) {
  for (const NodeId n : nodes) {
    const std::string& name = net.topo.name(n);
    if (name.find(',') != std::string::npos) return "";
    head += ' ' + name;
  }
  return head;
}

}  // namespace

std::unique_ptr<Policy> make_policy(const Network& net, std::string_view spec,
                                    std::string& error) {
  const auto t = split_tokens(spec, ' ');
  if (t.empty()) {
    error = "empty policy spec";
    return nullptr;
  }
  const std::string_view kind = t[0];
  const std::span<const std::string_view> rest(t.data() + 1, t.size() - 1);
  std::vector<NodeId> nodes;
  if (kind == "loop") {
    if (!rest.empty()) {
      error = "loop takes no arguments";
      return nullptr;
    }
    return std::make_unique<LoopFreedomPolicy>();
  }
  if (kind == "reach") {
    if (rest.empty()) {
      error = "reach needs at least one source node";
      return nullptr;
    }
    if (!nodes_of(net, rest, nodes, error)) return nullptr;
    return std::make_unique<ReachabilityPolicy>(std::move(nodes));
  }
  if (kind == "blackhole") {
    if (!nodes_of(net, rest, nodes, error)) return nullptr;
    return std::make_unique<BlackholeFreedomPolicy>(std::move(nodes));
  }
  if (kind == "bounded") {
    if (rest.size() < 2) {
      error = "usage: bounded <limit> <node>...";
      return nullptr;
    }
    std::uint32_t limit = 0;
    if (!parse_int(rest[0], limit)) {
      error = "bad bound '" + std::string(rest[0]) + "'";
      return nullptr;
    }
    if (!nodes_of(net, rest.subspan(1), nodes, error)) return nullptr;
    return std::make_unique<BoundedPathLengthPolicy>(std::move(nodes), limit);
  }
  if (kind == "waypoint") {
    std::vector<NodeId> via;
    if (rest.size() < 2) {
      error = "usage: waypoint <via>[,<via>...] <source>...";
      return nullptr;
    }
    if (!nodes_of(net, rest.first(1), via, error) ||
        !nodes_of(net, rest.subspan(1), nodes, error)) {
      return nullptr;
    }
    return std::make_unique<WaypointPolicy>(std::move(nodes), std::move(via));
  }
  if (kind == "multipath") {
    if (!nodes_of(net, rest, nodes, error)) return nullptr;
    return std::make_unique<MultipathConsistencyPolicy>(std::move(nodes));
  }
  if (kind == "consistency") {
    if (rest.empty()) {
      error = "consistency needs at least one node";
      return nullptr;
    }
    if (!nodes_of(net, rest, nodes, error)) return nullptr;
    return std::make_unique<PathConsistencyPolicy>(std::move(nodes));
  }
  error = "unknown policy '" + std::string(kind) + "'";
  return nullptr;
}

// Reach, bounded and consistency take the all-nodes empty list only
// implicitly: those cases have no spec form.
std::string ReachabilityPolicy::spec(const Network& net) const {
  return sources_.empty() ? "" : spec_of("reach", net, sources_);
}

std::string WaypointPolicy::spec(const Network& net) const {
  if (waypoints_.empty() || sources_.empty()) return "";
  std::string via = spec_of("", net, waypoints_);
  if (via.empty()) return "";
  std::replace(via.begin() + 1, via.end(), ' ', ',');
  return spec_of("waypoint" + via, net, sources_);
}

std::string LoopFreedomPolicy::spec(const Network&) const { return "loop"; }

std::string BlackholeFreedomPolicy::spec(const Network& net) const {
  return spec_of("blackhole", net, sources_);
}

std::string BoundedPathLengthPolicy::spec(const Network& net) const {
  if (sources_.empty()) return "";
  return spec_of("bounded " + std::to_string(limit_), net, sources_);
}

std::string MultipathConsistencyPolicy::spec(const Network& net) const {
  return spec_of("multipath", net, sources_);
}

std::string PathConsistencyPolicy::spec(const Network& net) const {
  return group_.empty() ? "" : spec_of("consistency", net, group_);
}

}  // namespace plankton
