#include "config/network.hpp"

#include <algorithm>

namespace plankton {

NodeId Network::add_device(std::string name, IpAddr loopback) {
  const NodeId id = topo.add_node(name);
  DeviceConfig cfg;
  cfg.name = std::move(name);
  cfg.loopback = loopback;
  devices.push_back(std::move(cfg));
  return id;
}

std::optional<NodeId> Network::find_device(std::string_view name) const {
  for (NodeId n = 0; n < devices.size(); ++n) {
    if (devices[n].name == name) return n;
  }
  return std::nullopt;
}

std::vector<Prefix> Network::mentioned_prefixes() const {
  std::vector<Prefix> out;
  auto add_route_map = [&out](const RouteMap& rm) {
    for (const auto& clause : rm.clauses) {
      if (clause.match.prefix) out.push_back(*clause.match.prefix);
    }
  };
  for (const auto& dev : devices) {
    if (dev.loopback != IpAddr()) out.push_back(Prefix::host(dev.loopback));
    for (const auto& p : dev.ospf.originated) out.push_back(p);
    if (dev.bgp) {
      for (const auto& p : dev.bgp->originated) out.push_back(p);
      for (const auto& s : dev.bgp->sessions) {
        add_route_map(s.import);
        add_route_map(s.export_);
      }
    }
    for (const auto& sr : dev.statics) {
      out.push_back(sr.dst);
      if (sr.via_ip) out.push_back(Prefix::host(*sr.via_ip));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> Network::validate() const {
  std::vector<std::string> problems;
  if (devices.size() != topo.node_count()) {
    problems.push_back("device list size does not match topology node count");
    return problems;
  }
  for (NodeId n = 0; n < devices.size(); ++n) {
    const auto& dev = devices[n];
    if (dev.bgp) {
      for (const auto& s : dev.bgp->sessions) {
        if (s.peer >= devices.size()) {
          problems.push_back(dev.name + ": BGP session with unknown node id");
          continue;
        }
        const auto& peer = devices[s.peer];
        if (!peer.bgp) {
          problems.push_back(dev.name + ": BGP session with non-BGP device " +
                             peer.name);
          continue;
        }
        const auto* back = peer.bgp->session_with(n);
        if (back == nullptr) {
          problems.push_back(dev.name + ": BGP session with " + peer.name +
                             " is not configured symmetrically");
        } else if (back->ibgp != s.ibgp) {
          problems.push_back(dev.name + "<->" + peer.name +
                             ": session type (iBGP/eBGP) mismatch");
        }
        if (!s.ibgp && topo.find_link(n, s.peer) == kNoLink) {
          problems.push_back(dev.name + ": eBGP session with non-adjacent " +
                             peer.name);
        }
        if (s.ibgp && (dev.loopback == IpAddr() || peer.loopback == IpAddr())) {
          problems.push_back(dev.name + "<->" + peer.name +
                             ": iBGP requires loopbacks on both ends");
        }
      }
    }
    for (const auto& sr : dev.statics) {
      const int modes = int(sr.via_neighbor != kNoNode) + int(sr.via_ip.has_value()) +
                        int(sr.drop);
      if (modes != 1) {
        problems.push_back(dev.name + ": static route to " + sr.dst.str() +
                           " must have exactly one of via-neighbor/via-ip/drop");
      }
      if (sr.via_neighbor != kNoNode && topo.find_link(n, sr.via_neighbor) == kNoLink) {
        problems.push_back(dev.name + ": static route via non-adjacent node");
      }
    }
  }
  return problems;
}

}  // namespace plankton
