#include "protocols/route.hpp"

namespace plankton {

PathTable::PathTable() {
  cells_.resize(2);
  cells_[kNoPath] = Cell{kNoNode, kNoPath, 0};
  cells_[kEmptyPath] = Cell{kNoNode, kEmptyPath, 0};
}

PathId PathTable::cons(NodeId head, PathId rest) {
  const auto fresh = static_cast<PathId>(cells_.size());
  const PathId id = index_.find_or_insert(
      hash_combine(hash_mix(head), rest), fresh, [&](PathId c) {
        return cells_[c].head == head && cells_[c].rest == rest;
      });
  if (id == fresh) cells_.push_back(Cell{head, rest, cells_[rest].length + 1});
  return id;
}

bool PathTable::contains(PathId p, NodeId node) const {
  while (p != kNoPath && p != kEmptyPath) {
    if (cells_[p].head == node) return true;
    p = cells_[p].rest;
  }
  return false;
}

std::vector<NodeId> PathTable::to_vector(PathId p) const {
  std::vector<NodeId> out;
  out.reserve(length(p));
  while (p != kNoPath && p != kEmptyPath) {
    out.push_back(cells_[p].head);
    p = cells_[p].rest;
  }
  return out;
}

std::string PathTable::str(PathId p, const Topology* topo) const {
  if (p == kNoPath) return "<none>";
  if (p == kEmptyPath) return "<origin>";
  std::string out;
  for (const NodeId n : to_vector(p)) {
    if (!out.empty()) out += " -> ";
    out += topo != nullptr ? topo->name(n) : std::to_string(n);
  }
  return out;
}

std::size_t PathTable::bytes() const {
  return cells_.capacity() * sizeof(Cell) + index_.bytes();
}

RouteTable::RouteTable() {
  routes_.emplace_back();  // id 0 = ⊥
}

RouteId RouteTable::intern(Route r) {
  const auto fresh = static_cast<RouteId>(routes_.size());
  const RouteId id = index_.find_or_insert(
      r.hash(), fresh, [&](RouteId c) { return routes_[c] == r; });
  if (id == fresh) {
    ecmp_bytes_ += r.ecmp.capacity() * sizeof(NodeId);
    routes_.push_back(std::move(r));
  }
  return id;
}

RouteId RouteTable::find(const Route& r) const {
  return index_.find(r.hash(), [&](RouteId c) { return routes_[c] == r; });
}

void RouteTable::nexthops(RouteId id, const PathTable& paths,
                          std::vector<NodeId>& out) const {
  out.clear();
  if (id == kNoRoute) return;
  const Route& r = routes_[id];
  if (!r.ecmp.empty()) {
    out.assign(r.ecmp.begin(), r.ecmp.end());
    return;
  }
  if (r.path != kNoPath && r.path != kEmptyPath) out.push_back(paths.head(r.path));
}

std::size_t RouteTable::bytes() const {
  return routes_.capacity() * sizeof(Route) + ecmp_bytes_ + index_.bytes();
}

}  // namespace plankton
