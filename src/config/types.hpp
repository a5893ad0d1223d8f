// Device configuration model: OSPF, BGP (sessions + route maps), static routes.
//
// This mirrors the subset of real configuration that Plankton's prototype
// consumes (§5: OSPF, BGP, static routing). Route maps are the abstract
// import/export filters + ranking inputs of the extended-SPVP model (§3.4.1,
// Appendix A): they can permit/deny, set local-pref, add communities, and
// prepend to the AS path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netbase/ip.hpp"
#include "netbase/topology.hpp"

namespace plankton {

/// Routing information sources, ordered by administrative distance.
enum class Protocol : std::uint8_t { kConnected, kStatic, kEbgp, kOspf, kIbgp };

/// Cisco-style administrative distance used when the FIB merges protocols.
[[nodiscard]] constexpr std::uint8_t admin_distance(Protocol p) {
  switch (p) {
    case Protocol::kConnected: return 0;
    case Protocol::kStatic: return 1;
    case Protocol::kEbgp: return 20;
    case Protocol::kOspf: return 110;
    case Protocol::kIbgp: return 200;
  }
  return 255;
}

/// Communities are interned to bit positions; a route carries up to 32.
using CommunityBits = std::uint32_t;

/// One match condition of a route-map clause. Empty optionals always match.
struct RouteMapMatch {
  enum class PrefixMode : std::uint8_t { kExact, kOrLonger };
  std::optional<Prefix> prefix;
  PrefixMode prefix_mode = PrefixMode::kExact;
  std::optional<std::uint8_t> community;       ///< community bit that must be set
  std::optional<std::uint16_t> max_path_len;   ///< AS-path length upper bound
};

/// Actions applied when a clause matches.
struct RouteMapAction {
  bool permit = true;
  std::optional<std::uint32_t> set_local_pref;
  std::optional<std::uint8_t> add_community;
  std::uint8_t prepend = 0;  ///< extra AS-path length added
};

struct RouteMapClause {
  RouteMapMatch match;
  RouteMapAction action;
};

/// First-match-wins clause list; falls through to `default_permit`.
struct RouteMap {
  std::vector<RouteMapClause> clauses;
  bool default_permit = true;

  [[nodiscard]] bool trivial() const { return clauses.empty() && default_permit; }
};

/// One BGP peering (a session over a link for eBGP, or loopback-to-loopback
/// for iBGP).
struct BgpSession {
  NodeId peer = kNoNode;
  bool ibgp = false;
  RouteMap import;   ///< applied to advertisements received from `peer`
  RouteMap export_;  ///< applied to advertisements sent to `peer`
};

struct BgpConfig {
  std::uint32_t asn = 0;
  std::vector<BgpSession> sessions;
  std::vector<Prefix> originated;
  /// Originate this device's OSPF-originated prefixes into BGP.
  bool redistribute_ospf = false;

  [[nodiscard]] const BgpSession* session_with(NodeId peer) const {
    for (const auto& s : sessions)
      if (s.peer == peer) return &s;
    return nullptr;
  }
  [[nodiscard]] BgpSession* session_with(NodeId peer) {
    for (auto& s : sessions)
      if (s.peer == peer) return &s;
    return nullptr;
  }
};

struct OspfConfig {
  bool enabled = false;
  std::vector<Prefix> originated;
  bool advertise_loopback = true;  ///< originate loopback/32 into OSPF
  /// Originate this device's static-route destinations into OSPF.
  bool redistribute_static = false;
};

/// A static route. Exactly one of {via_neighbor, via_ip, drop} is meaningful:
/// via_neighbor forwards out a directly-connected adjacency, via_ip is a
/// recursive route resolved through the FIB (the source of cross-PEC
/// dependencies, §3.2), drop is a null route.
struct StaticRoute {
  Prefix dst;
  NodeId via_neighbor = kNoNode;
  std::optional<IpAddr> via_ip;
  bool drop = false;
};

struct DeviceConfig {
  std::string name;
  IpAddr loopback;
  OspfConfig ospf;
  std::optional<BgpConfig> bgp;
  std::vector<StaticRoute> statics;
};

}  // namespace plankton
