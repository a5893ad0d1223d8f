// Hash-consed paths and routes — the state-hashing substrate (paper §4.4).
//
// The checker's network state is a vector of per-node best routes. Storing
// full route objects per state would be prohibitively expensive, so routes
// and paths are interned: each distinct path is a cons cell (head next hop +
// id of the rest) stored once in a PathTable, each distinct attribute bundle
// is stored once in a RouteTable, and states hold 32-bit ids. This is the
// "64-bit pointers to the actual entry, with each entry stored once and
// indexed in a hash table" scheme from the paper, with structural sharing of
// path suffixes as a bonus.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "config/types.hpp"
#include "netbase/flat_index.hpp"
#include "netbase/hash.hpp"
#include "netbase/topology.hpp"

namespace plankton {

using PathId = std::uint32_t;
using RouteId = std::uint32_t;

inline constexpr PathId kNoPath = 0;     ///< ⊥ — no path.
inline constexpr PathId kEmptyPath = 1;  ///< ε — the origin's path.
inline constexpr RouteId kNoRoute = 0;   ///< ⊥ — node has no route.

/// Interns cons-cell paths. Path [head | rest] reads "forward to `head`,
/// which continues with path `rest` toward the origin".
class PathTable {
 public:
  PathTable();

  /// Interns the path with first hop `head` and continuation `rest`.
  PathId cons(NodeId head, PathId rest);

  [[nodiscard]] NodeId head(PathId p) const { return cells_[p].head; }
  [[nodiscard]] PathId rest(PathId p) const { return cells_[p].rest; }
  [[nodiscard]] std::uint32_t length(PathId p) const { return cells_[p].length; }

  /// True when `node` appears anywhere on the path (loop detection).
  [[nodiscard]] bool contains(PathId p, NodeId node) const;

  /// Expands to the node sequence (next hop first, origin last).
  [[nodiscard]] std::vector<NodeId> to_vector(PathId p) const;

  [[nodiscard]] std::string str(PathId p, const Topology* topo = nullptr) const;

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Cell {
    NodeId head = kNoNode;
    PathId rest = kNoPath;
    std::uint32_t length = 0;
  };
  std::vector<Cell> cells_;
  FlatIndex index_;  ///< hash(head, rest) -> cell id
};

/// A best-route candidate as held by a node during RPVP execution.
///
/// OSPF uses `metric` (IGP cost) and may carry multiple equal-cost next hops
/// in `ecmp` (the paper's special-case multipath deviation, §3.4.2). BGP uses
/// local_pref / as_path_len / metric (IGP cost to the egress) and the
/// communities accumulated by route maps. `egress` is the eBGP border device
/// whose loopback iBGP-learned routes resolve through.
struct Route {
  PathId path = kNoPath;
  std::uint32_t metric = 0;
  std::uint32_t local_pref = 100;
  std::uint16_t as_path_len = 0;
  bool learned_ibgp = false;
  NodeId egress = kNoNode;
  CommunityBits communities = 0;
  std::vector<NodeId> ecmp;  ///< sorted; empty means single next hop = path head

  friend bool operator==(const Route&, const Route&) = default;

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = hash_combine(path, metric);
    h = hash_combine(h, local_pref);
    h = hash_combine(h, (std::uint64_t{as_path_len} << 2) |
                            (std::uint64_t{learned_ibgp} << 1));
    h = hash_combine(h, egress);
    h = hash_combine(h, communities);
    for (const NodeId n : ecmp) h = hash_combine(h, n);
    return h;
  }
};

/// Interns routes; id 0 is ⊥ (no route).
class RouteTable {
 public:
  RouteTable();

  RouteId intern(Route r);

  /// Id of `r` if already interned, else kNoRoute. Lets hot paths test for
  /// an existing route without the by-value copy intern() takes (the
  /// explorer's steady state re-derives already-interned routes only).
  [[nodiscard]] RouteId find(const Route& r) const;

  [[nodiscard]] const Route& get(RouteId id) const { return routes_[id]; }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  /// O(1): ECMP heap bytes are tallied at intern time.
  [[nodiscard]] std::size_t bytes() const;

  /// Next hops of a route: its ECMP set if present, else the path head.
  void nexthops(RouteId id, const PathTable& paths,
                std::vector<NodeId>& out) const;

 private:
  std::vector<Route> routes_;
  FlatIndex index_;              ///< Route::hash() -> route id
  std::size_t ecmp_bytes_ = 0;   ///< heap bytes of the interned ECMP sets
};

}  // namespace plankton
