// A Network bundles the physical topology with per-device configuration.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "config/types.hpp"
#include "netbase/topology.hpp"

namespace plankton {

class Network {
 public:
  Topology topo;
  std::vector<DeviceConfig> devices;  ///< indexed by NodeId

  /// Adds a device, keeping `devices` aligned with the topology's node ids.
  NodeId add_device(std::string name, IpAddr loopback = IpAddr());

  [[nodiscard]] const DeviceConfig& device(NodeId n) const { return devices[n]; }
  [[nodiscard]] DeviceConfig& device(NodeId n) { return devices[n]; }

  [[nodiscard]] std::optional<NodeId> find_device(std::string_view name) const;

  /// All prefixes that appear anywhere in the configuration: originated
  /// (OSPF/BGP), loopbacks, static destinations, route-map matches. These
  /// seed the PEC trie (§3.1).
  [[nodiscard]] std::vector<Prefix> mentioned_prefixes() const;

  /// Sanity checks (session symmetry, static next hops exist, ...).
  /// Returns a human-readable list of problems; empty means valid.
  [[nodiscard]] std::vector<std::string> validate() const;
};

}  // namespace plankton
