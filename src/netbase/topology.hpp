// Physical topology: devices (nodes) and point-to-point links.
//
// The topology is the substrate beneath every protocol model. Links carry
// per-direction IGP weights (OSPF costs); failures are expressed as sets of
// link ids, which the RPVP engine and the baselines both consume.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "netbase/ip.hpp"

namespace plankton {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
inline constexpr LinkId kNoLink = std::numeric_limits<LinkId>::max();

/// An undirected point-to-point link with a per-direction cost.
struct Link {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  std::uint32_t cost_ab = 1;  ///< IGP cost when traversing a -> b.
  std::uint32_t cost_ba = 1;  ///< IGP cost when traversing b -> a.

  [[nodiscard]] NodeId other(NodeId n) const { return n == a ? b : a; }
  [[nodiscard]] std::uint32_t cost_from(NodeId n) const {
    return n == a ? cost_ab : cost_ba;
  }
};

/// Adjacency entry as seen from one endpoint of a link.
struct Adjacency {
  NodeId neighbor = kNoNode;
  LinkId link = kNoLink;
  std::uint32_t cost = 1;  ///< Cost of leaving this node over the link.
};

/// A set of failed links, stored both as a bitmap (O(1) membership) and as a
/// sorted id list (cheap hashing / canonical form).
class FailureSet {
 public:
  FailureSet() = default;
  explicit FailureSet(std::size_t num_links) : failed_(num_links, false) {}

  void resize(std::size_t num_links) { failed_.assign(num_links, false); }

  void fail(LinkId link);
  [[nodiscard]] bool is_failed(LinkId link) const {
    return link < failed_.size() && failed_[link];
  }
  [[nodiscard]] std::span<const LinkId> ids() const { return ids_; }
  [[nodiscard]] std::size_t count() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }

  /// Stable 64-bit hash of the failed-link id list (used to key outcome
  /// stores and coordinate failures across PEC runs).
  [[nodiscard]] std::uint64_t hash() const;

  [[nodiscard]] std::string str() const;

  friend bool operator==(const FailureSet& x, const FailureSet& y) {
    return x.ids_ == y.ids_;
  }

 private:
  std::vector<bool> failed_;
  std::vector<LinkId> ids_;  // sorted
};

/// The device/link graph. Node ids are dense [0, node_count).
class Topology {
 public:
  NodeId add_node(std::string name);
  /// Adds an undirected link with symmetric cost.
  LinkId add_link(NodeId a, NodeId b, std::uint32_t cost = 1);
  /// Adds an undirected link with per-direction costs.
  LinkId add_link(NodeId a, NodeId b, std::uint32_t cost_ab, std::uint32_t cost_ba);

  [[nodiscard]] std::size_t node_count() const { return names_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const std::string& name(NodeId n) const { return names_[n]; }
  [[nodiscard]] const Link& link(LinkId l) const { return links_[l]; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  /// All adjacencies of `n` (including ones over failed links; callers filter).
  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId n) const {
    return adjacency_[n];
  }

  /// Link between a and b, or kNoLink. O(deg(a)).
  [[nodiscard]] LinkId find_link(NodeId a, NodeId b) const;

  /// Rewrites both per-direction costs of an existing link (and the cached
  /// adjacency costs on both endpoints). Used by workload generators to break
  /// symmetry; not a runtime mutation path — verifiers snapshot the topology.
  void set_link_cost(LinkId l, std::uint32_t cost_ab, std::uint32_t cost_ba);

  [[nodiscard]] FailureSet no_failures() const { return FailureSet(links_.size()); }

 private:
  std::vector<std::string> names_;
  std::vector<Link> links_;
  std::vector<std::vector<Adjacency>> adjacency_;
};

/// Computes single-source shortest-path costs from `sources` over non-failed
/// links (Dijkstra). Unreachable nodes get kInfiniteCost. This is the
/// reference IGP computation that tests and benches check against;
/// OspfProcess::prepare runs its own over the OSPF sessions.
inline constexpr std::uint32_t kInfiniteCost = std::numeric_limits<std::uint32_t>::max();

std::vector<std::uint32_t> shortest_path_costs(const Topology& topo,
                                               std::span<const NodeId> sources,
                                               const FailureSet& failures);

}  // namespace plankton
