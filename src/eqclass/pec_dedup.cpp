#include "eqclass/pec_dedup.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "netbase/hash.hpp"

namespace plankton {
namespace {

// ---------------------------------------------------------------------------
// Route-map canonicalization: the evaluation footprint on one PEC's prefixes.
//
// Only routes for the PEC's own prefixes ever flow through a session's maps
// during this PEC's exploration, so two maps are interchangeable iff they
// treat *those* prefixes identically. Clauses whose prefix match can never
// fire for any PEC prefix are inert here (first-match-wins falls through
// them) and are dropped; fireable clauses keep a per-prefix-index match
// bitmask in place of the concrete prefix value. This is what lets PECs that
// differ only in address bits — the classic many-prefixes-same-treatment
// configuration — share one canonical form.
// ---------------------------------------------------------------------------
std::uint64_t canonical_route_map(const RouteMap& rm, const Pec& pec) {
  std::uint64_t h = hash_mix(rm.default_permit ? 0xD1 : 0xD0);
  if (rm.clauses.empty()) return h;  // trivial map: one mix, no scan
  for (const RouteMapClause& c : rm.clauses) {
    std::uint64_t match_bits = 0;
    if (c.match.prefix) {
      for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
        const Prefix& p = pec.prefixes[pi].prefix;
        const bool m = c.match.prefix_mode == RouteMapMatch::PrefixMode::kExact
                           ? *c.match.prefix == p
                           : c.match.prefix->covers(p);
        if (m) match_bits |= std::uint64_t{1} << pi;
      }
      if (match_bits == 0) continue;  // inert for every prefix of this PEC
    } else {
      match_bits = ~std::uint64_t{0};  // no prefix condition: all prefixes
    }
    h = hash_combine(h, match_bits);
    h = hash_combine(h, c.match.community ? 0x100u + *c.match.community : 1u);
    h = hash_combine(h, c.match.max_path_len ? 0x10000u + *c.match.max_path_len : 1u);
    h = hash_combine(h, c.action.permit ? 2u : 1u);
    h = hash_combine(h,
                     c.action.set_local_pref ? 0x1000000ull + *c.action.set_local_pref : 1u);
    h = hash_combine(h, c.action.add_community ? 0x200u + *c.action.add_community : 1u);
    h = hash_combine(h, c.action.prepend);
  }
  return h;
}

/// Caches canonical_route_map across the many per-PEC fingerprint passes of
/// one compute_pec_classes call. A map with no prefix-matching clause has a
/// PEC-independent canonical form (its footprint bitmask is all-ones for
/// every PEC) — hash it once; only prefix-matching maps re-canonicalize per
/// PEC. On map-heavy fabrics (eBGP on every link) this removes the dominant
/// fingerprinting cost.
class RouteMapCanon {
 public:
  std::uint64_t of(const RouteMap& rm, const Pec& pec) {
    const auto it = pec_free_.find(&rm);
    if (it != pec_free_.end()) {
      if (it->second.pec_independent) return it->second.hash;
      return canonical_route_map(rm, pec);
    }
    Entry e;
    e.pec_independent =
        std::none_of(rm.clauses.begin(), rm.clauses.end(),
                     [](const RouteMapClause& c) { return c.match.prefix.has_value(); });
    const std::uint64_t h = canonical_route_map(rm, pec);
    if (e.pec_independent) e.hash = h;
    pec_free_.emplace(&rm, e);
    return h;
  }

 private:
  struct Entry {
    bool pec_independent = false;
    std::uint64_t hash = 0;
  };
  std::unordered_map<const RouteMap*, Entry> pec_free_;
};

/// /32 loopback local delivery (dataplane/fib.cpp): node n delivers prefix
/// `pi` of `pec` locally when it owns the loopback.
bool loopback_delivers(const Network& net, const Pec& pec, std::size_t pi,
                       NodeId n) {
  const Prefix& p = pec.prefixes[pi].prefix;
  return p.length() == 32 && net.device(n).loopback == p.addr();
}

// ---------------------------------------------------------------------------
// Per-PEC canonical fingerprint via color refinement with hash-valued colors.
//
// Unlike DecPartition (which renumbers colors densely), the colors here stay
// raw hashes: a hash color is a pure function of the node's configuration
// role, its slice of the PEC, the policy salts, and the (recursively hashed)
// neighborhood — never of the node id — so equal structure yields equal
// color values across different PECs. That invariance is what makes the
// sorted color multiset a canonical form, and the (color, id) sort a
// canonical candidate bijection.
// ---------------------------------------------------------------------------

struct RefineEdge {
  NodeId to = kNoNode;
  std::uint64_t label = 0;  ///< costs / session maps / static-via relation
};

struct PecShape {
  std::vector<std::uint64_t> colors;  ///< final refined color per node
  std::uint64_t fingerprint = 0;
};

/// Topology-link refinement edges — PEC-independent, built once per
/// compute_pec_classes call and re-used as the base of every PEC's edge set.
std::vector<std::vector<RefineEdge>> topology_edges(const Network& net) {
  std::vector<std::vector<RefineEdge>> edges(net.topo.node_count());
  for (NodeId n = 0; n < edges.size(); ++n) {
    for (const Adjacency& adj : net.topo.neighbors(n)) {
      const Link& l = net.topo.link(adj.link);
      RefineEdge e;
      e.to = adj.neighbor;
      e.label = hash_combine(hash_combine(0x701070ull, adj.cost),
                             l.cost_from(adj.neighbor));
      edges[n].push_back(e);
    }
  }
  return edges;
}

PecShape pec_shape(const Network& net, const Pec& pec, const Policy& policy,
                   const std::vector<std::vector<RefineEdge>>& topo_edges,
                   RouteMapCanon& canon) {
  const std::size_t n_nodes = net.topo.node_count();
  PecShape shape;

  // Relational edges the refinement (and the exploration) sees: topology
  // links with per-direction costs, BGP sessions with footprint-canonical
  // maps, and static-route via-neighbor relations from this PEC's slice.
  std::vector<std::vector<RefineEdge>> edges = topo_edges;
  for (NodeId n = 0; n < n_nodes; ++n) {
    const auto& dev = net.device(n);
    if (dev.bgp) {
      for (const BgpSession& s : dev.bgp->sessions) {
        RefineEdge e;
        e.to = s.peer;
        std::uint64_t label = hash_mix(s.ibgp ? 0xB6B1ull : 0xB6B0ull);
        label = hash_combine(label, canon.of(s.import, pec));
        label = hash_combine(label, canon.of(s.export_, pec));
        e.label = label;
        edges[n].push_back(e);
      }
    }
  }
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    for (const auto& [dev, idx] : pec.prefixes[pi].static_routes) {
      const StaticRoute& sr = net.device(dev).statics[idx];
      if (sr.via_neighbor == kNoNode) continue;
      RefineEdge e;
      e.to = sr.via_neighbor;
      e.label = hash_combine(0x57A7ull, pi);
      edges[dev].push_back(e);
    }
  }

  // Base colors: configuration role + PEC slice + policy salts. Sources and
  // interesting nodes get position-unique salts, so they sit alone in their
  // color class and the canonical bijection can only map them to themselves.
  std::vector<std::uint64_t> color(n_nodes);
  for (NodeId n = 0; n < n_nodes; ++n) {
    const auto& dev = net.device(n);
    std::uint64_t h = hash_mix(dev.ospf.enabled ? 2 : 1);
    h = hash_combine(h, dev.bgp ? 2u : 1u);
    for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
      const PecPrefix& pp = pec.prefixes[pi];
      if (std::find(pp.ospf_origins.begin(), pp.ospf_origins.end(), n) !=
          pp.ospf_origins.end()) {
        h = hash_combine(h, 0x10 + pi * 8);
      }
      if (std::find(pp.bgp_origins.begin(), pp.bgp_origins.end(), n) !=
          pp.bgp_origins.end()) {
        h = hash_combine(h, 0x11 + pi * 8);
      }
      if (loopback_delivers(net, pec, pi, n)) h = hash_combine(h, 0x12 + pi * 8);
      std::uint64_t statics_h = 0;
      for (const auto& [dev_id, idx] : pp.static_routes) {
        if (dev_id != n) continue;
        const StaticRoute& sr = net.device(n).statics[idx];
        // via_neighbor is a relation (edge above); drop/forward is a label.
        statics_h += hash_combine(0x13 + pi * 8, sr.drop ? 2u : 1u);
      }
      h = hash_combine(h, statics_h);  // order-free multiset sum
    }
    const auto sources = policy.sources();
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (sources[i] == n) h = hash_combine(h, 0x50AD0000ull + i);
    }
    const auto interesting = policy.interesting();
    for (std::size_t i = 0; i < interesting.size(); ++i) {
      if (interesting[i] == n) h = hash_combine(h, 0x17770000ull + i);
    }
    color[n] = h;
  }

  // Refine until the partition stabilizes. Each round's color is a function
  // of the previous round's, so the partition only ever gets finer; when the
  // number of distinct colors stops growing, it is stable.
  std::vector<std::uint64_t> next(n_nodes);
  std::vector<std::uint64_t> scratch;
  std::size_t distinct = 0;
  for (std::size_t round = 0; round <= n_nodes; ++round) {
    scratch.assign(color.begin(), color.end());
    std::sort(scratch.begin(), scratch.end());
    const std::size_t d =
        static_cast<std::size_t>(std::unique(scratch.begin(), scratch.end()) -
                                 scratch.begin());
    if (round > 0 && d == distinct) break;
    distinct = d;
    std::vector<std::uint64_t> sig;
    for (NodeId n = 0; n < n_nodes; ++n) {
      sig.clear();
      for (const RefineEdge& e : edges[n]) {
        sig.push_back(hash_combine(e.label, color[e.to]));
      }
      std::sort(sig.begin(), sig.end());
      std::uint64_t h = color[n];
      for (const std::uint64_t s : sig) h = hash_combine(h, s);
      next[n] = h;
    }
    color.swap(next);
  }

  // Canonical form: sorted color multiset + prefix structure. (Prefix
  // *values* are deliberately absent — only lengths and the footprints
  // already folded into the colors matter to the exploration.)
  scratch.assign(color.begin(), color.end());
  std::sort(scratch.begin(), scratch.end());
  std::uint64_t fp = hash_span(std::span<const std::uint64_t>(scratch));
  fp = hash_combine(fp, pec.prefixes.size());
  for (const PecPrefix& pp : pec.prefixes) {
    fp = hash_combine(fp, pp.prefix.length());
  }
  shape.colors = std::move(color);
  shape.fingerprint = fp;
  return shape;
}

/// Nodes ordered by (final color, id): the canonical order used to construct
/// the candidate bijection between two PECs with equal fingerprints.
std::vector<NodeId> canonical_order(const std::vector<std::uint64_t>& colors) {
  std::vector<NodeId> order(colors.size());
  for (NodeId n = 0; n < order.size(); ++n) order[n] = n;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
  });
  return order;
}

// ---------------------------------------------------------------------------
// Validation: prove the candidate bijection is a configuration isomorphism.
// The fingerprint is a hash — collisions and refinement-blind asymmetries
// both die here, degrading the member to its own class instead of producing
// an unsound verdict transfer.
// ---------------------------------------------------------------------------

bool sorted_equal_mapped(std::vector<std::uint64_t> a, std::vector<std::uint64_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// pi maps nodes of `a`'s exploration onto `b`'s.
bool validate_isomorphism(const Network& net, const Pec& a, const Pec& b,
                          const Policy& policy, std::span<const NodeId> pi,
                          RouteMapCanon& canon) {
  const std::size_t n_nodes = net.topo.node_count();

  // Policy fixed points: declared special nodes must be preserved exactly —
  // the policy predicate is only renaming-invariant over undeclared nodes
  // (the same contract policy pruning and DEC merging already assume).
  for (const NodeId s : policy.sources()) {
    if (pi[s] != s) return false;
  }
  for (const NodeId s : policy.interesting()) {
    if (pi[s] != s) return false;
  }

  // Prefix structure. Prefix lengths are pairwise distinct inside a PEC
  // (every contributing prefix covers the whole PEC range), so index-wise
  // pairing is the canonical one.
  if (a.prefixes.size() != b.prefixes.size()) return false;
  for (std::size_t i = 0; i < a.prefixes.size(); ++i) {
    if (a.prefixes[i].prefix.length() != b.prefixes[i].prefix.length()) {
      return false;
    }
  }

  // Topology automorphism, parallel-link safe: per node, the multiset of
  // (mapped neighbor, out-cost, return-cost) must be preserved.
  {
    std::vector<std::uint64_t> la, lb;
    for (NodeId n = 0; n < n_nodes; ++n) {
      la.clear();
      lb.clear();
      for (const Adjacency& adj : net.topo.neighbors(n)) {
        const Link& l = net.topo.link(adj.link);
        la.push_back(hash_combine(
            hash_combine(pi[adj.neighbor], adj.cost), l.cost_from(adj.neighbor)));
      }
      for (const Adjacency& adj : net.topo.neighbors(pi[n])) {
        const Link& l = net.topo.link(adj.link);
        lb.push_back(hash_combine(hash_combine(adj.neighbor, adj.cost),
                                  l.cost_from(adj.neighbor)));
      }
      if (!sorted_equal_mapped(la, lb)) return false;
    }
  }

  // Device configuration equivalence under pi.
  for (NodeId n = 0; n < n_nodes; ++n) {
    const auto& da = net.device(n);
    const auto& db = net.device(pi[n]);
    if (da.ospf.enabled != db.ospf.enabled) return false;
    if (da.bgp.has_value() != db.bgp.has_value()) return false;
    if (da.bgp) {
      std::vector<std::uint64_t> sa, sb;
      for (const BgpSession& s : da.bgp->sessions) {
        std::uint64_t h = hash_combine(pi[s.peer], s.ibgp ? 2u : 1u);
        h = hash_combine(h, canon.of(s.import, a));
        h = hash_combine(h, canon.of(s.export_, a));
        sa.push_back(h);
      }
      for (const BgpSession& s : db.bgp->sessions) {
        std::uint64_t h = hash_combine(s.peer, s.ibgp ? 2u : 1u);
        h = hash_combine(h, canon.of(s.import, b));
        h = hash_combine(h, canon.of(s.export_, b));
        sb.push_back(h);
      }
      if (!sorted_equal_mapped(std::move(sa), std::move(sb))) return false;
    }
  }

  // Per-prefix slice correspondence.
  for (std::size_t i = 0; i < a.prefixes.size(); ++i) {
    const PecPrefix& pa = a.prefixes[i];
    const PecPrefix& pb = b.prefixes[i];
    auto mapped_set = [&](const std::vector<NodeId>& v) {
      std::vector<std::uint64_t> out;
      out.reserve(v.size());
      for (const NodeId x : v) out.push_back(pi[x]);
      return out;
    };
    auto raw_set = [](const std::vector<NodeId>& v) {
      return std::vector<std::uint64_t>(v.begin(), v.end());
    };
    if (!sorted_equal_mapped(mapped_set(pa.ospf_origins), raw_set(pb.ospf_origins))) {
      return false;
    }
    if (!sorted_equal_mapped(mapped_set(pa.bgp_origins), raw_set(pb.bgp_origins))) {
      return false;
    }
    std::vector<std::uint64_t> sta, stb;
    for (const auto& [dev, idx] : pa.static_routes) {
      const StaticRoute& sr = net.device(dev).statics[idx];
      if (sr.via_ip) return false;  // recursive: outcome-coupled, never dedup
      sta.push_back(hash_combine(hash_combine(pi[dev], sr.drop ? 2u : 1u),
                                 sr.drop ? kNoNode : pi[sr.via_neighbor]));
    }
    for (const auto& [dev, idx] : pb.static_routes) {
      const StaticRoute& sr = net.device(dev).statics[idx];
      if (sr.via_ip) return false;
      stb.push_back(hash_combine(hash_combine(std::uint64_t{dev}, sr.drop ? 2u : 1u),
                                 sr.drop ? kNoNode : sr.via_neighbor));
    }
    if (!sorted_equal_mapped(std::move(sta), std::move(stb))) return false;
    // /32 loopback local delivery must be preserved node-by-node.
    if (pa.prefix.length() == 32 || pb.prefix.length() == 32) {
      for (NodeId n = 0; n < n_nodes; ++n) {
        if (loopback_delivers(net, a, i, n) != loopback_delivers(net, b, i, pi[n])) {
          return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Serve-layer residues (compute_pec_fingerprints in the header). Everything
// hashes config *values* through the constexpr mixers so the result is
// stable across processes and runs.
// ---------------------------------------------------------------------------

std::uint64_t hash_str(std::uint64_t h, std::string_view s) {
  h = hash_combine(h, s.size());
  for (const char c : s) h = hash_combine(h, static_cast<unsigned char>(c));
  return h;
}

std::uint64_t hash_prefix_value(std::uint64_t h, const Prefix& p) {
  return hash_combine(hash_combine(h, p.addr().value()), p.length());
}

/// True when `p`'s address range intersects [lo, hi] — the config entry can
/// influence routing for some address of the PEC.
bool intersects(const Prefix& p, IpAddr lo, IpAddr hi) {
  return p.first() <= hi && p.last() >= lo;
}

std::uint64_t hash_static_value(std::uint64_t h, const StaticRoute& sr) {
  h = hash_prefix_value(h, sr.dst);
  h = hash_combine(h, sr.via_neighbor);
  h = hash_combine(h, sr.via_ip ? sr.via_ip->value() : 0u);
  return hash_combine(h, sr.drop ? 2u : 1u);
}

/// Route-map residue restricted to one PEC: default-permit plus the full
/// concrete content of every clause that can *fire* for the PEC's range —
/// clauses with no prefix condition, or whose prefix range intersects it.
/// Routes flowing during a PEC's exploration carry prefixes that cover the
/// whole [lo, hi] range, so a clause whose prefix misses the range can never
/// match one (exact or or-longer) and first-match-wins falls through it:
/// editing such a clause must not move this PEC.
std::uint64_t route_map_residue(std::uint64_t h, const RouteMap& rm, IpAddr lo,
                                IpAddr hi) {
  h = hash_combine(h, rm.default_permit ? 2u : 1u);
  for (const RouteMapClause& c : rm.clauses) {
    if (c.match.prefix) {
      if (!intersects(*c.match.prefix, lo, hi)) continue;
      h = hash_prefix_value(hash_combine(h, 0xA1), *c.match.prefix);
      h = hash_combine(h, c.match.prefix_mode == RouteMapMatch::PrefixMode::kExact
                              ? 1u : 2u);
    } else {
      h = hash_combine(h, 0xA0);
    }
    h = hash_combine(h, c.match.community ? 0x100u + *c.match.community : 1u);
    h = hash_combine(h, c.match.max_path_len ? 0x10000u + *c.match.max_path_len : 1u);
    h = hash_combine(h, c.action.permit ? 2u : 1u);
    h = hash_combine(h, c.action.set_local_pref
                            ? 0x1000000ull + *c.action.set_local_pref : 1u);
    h = hash_combine(h, c.action.add_community ? 0x200u + *c.action.add_community : 1u);
    h = hash_combine(h, c.action.prepend);
  }
  return h;
}

/// Network-wide residue: device identities, protocol roles, session topology,
/// and link costs — the slice of config that feeds IGP path selection and
/// BGP propagation for *every* address, so a change here must move every
/// fingerprint. Prefix-valued config (originated prefixes, static routes,
/// route-map clause contents) is deliberately absent: it is folded into each
/// PEC's residue by range intersection below, so a delta touching prefix X
/// moves only the PECs X can influence. That scoping is what buys the serve
/// daemon its cache-hit ratio on deltas.
std::uint64_t network_residue(const Network& net) {
  std::uint64_t h = hash_mix(0x4E575245ull);  // "NWRE"
  h = hash_combine(h, net.topo.node_count());
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    const DeviceConfig& dev = net.device(n);
    h = hash_str(h, dev.name);
    h = hash_combine(h, dev.loopback.value());
    h = hash_combine(h, dev.ospf.enabled ? 2u : 1u);
    h = hash_combine(h, dev.ospf.advertise_loopback ? 2u : 1u);
    h = hash_combine(h, dev.ospf.redistribute_static ? 2u : 1u);
    if (dev.bgp) {
      h = hash_combine(h, dev.bgp->asn);
      h = hash_combine(h, dev.bgp->redistribute_ospf ? 2u : 1u);
      h = hash_combine(h, dev.bgp->sessions.size());
      for (const BgpSession& s : dev.bgp->sessions) {
        h = hash_combine(h, s.peer);
        h = hash_combine(h, s.ibgp ? 2u : 1u);
      }
    } else {
      h = hash_combine(h, 0xB0);
    }
  }
  h = hash_combine(h, net.topo.link_count());
  for (const Link& l : net.topo.links()) {
    h = hash_combine(hash_combine(h, l.a), l.b);
    h = hash_combine(hash_combine(h, l.cost_ab), l.cost_ba);
  }
  return h;
}

/// The prefix-valued config visible from [lo, hi]: every originated prefix,
/// static route, and fireable route-map clause whose range intersects the
/// PEC's. Each entry is tagged with its device id and a category marker so
/// the fold is self-delimiting (an entry moving between devices or
/// categories cannot alias).
std::uint64_t scoped_residue(const Network& net, std::uint64_t h, IpAddr lo,
                             IpAddr hi) {
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    const DeviceConfig& dev = net.device(n);
    for (const Prefix& p : dev.ospf.originated) {
      if (intersects(p, lo, hi)) {
        h = hash_prefix_value(hash_combine(hash_combine(h, 0xE1), n), p);
      }
    }
    for (const StaticRoute& sr : dev.statics) {
      if (intersects(sr.dst, lo, hi)) {
        h = hash_static_value(hash_combine(hash_combine(h, 0xE3), n), sr);
      }
    }
    if (!dev.bgp) continue;
    for (const Prefix& p : dev.bgp->originated) {
      if (intersects(p, lo, hi)) {
        h = hash_prefix_value(hash_combine(hash_combine(h, 0xE2), n), p);
      }
    }
    for (const BgpSession& s : dev.bgp->sessions) {
      h = hash_combine(hash_combine(h, 0xE4), n);
      h = hash_combine(h, s.peer);
      h = route_map_residue(h, s.import, lo, hi);
      h = route_map_residue(h, s.export_, lo, hi);
    }
  }
  return h;
}

}  // namespace

std::vector<std::uint64_t> compute_pec_fingerprints(const Network& net,
                                                    const PecSet& pecs) {
  std::vector<std::uint64_t> out(pecs.pecs.size());
  const std::uint64_t net_res = network_residue(net);
  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    const Pec& pec = pecs.pecs[p];
    // Per-PEC residue: the address range, concrete prefix values, the
    // identity-bearing slice (who originates, which static routes by value),
    // and the range-intersecting prefix-valued config.
    std::uint64_t h = hash_combine(net_res, pec.lo.value());
    h = hash_combine(h, pec.hi.value());
    h = hash_combine(h, pec.prefixes.size());
    for (const PecPrefix& pp : pec.prefixes) {
      h = hash_prefix_value(h, pp.prefix);
      h = hash_combine(h, pp.ospf_origins.size());
      for (const NodeId n : pp.ospf_origins) h = hash_combine(h, n);
      h = hash_combine(h, pp.bgp_origins.size());
      for (const NodeId n : pp.bgp_origins) h = hash_combine(h, n);
      h = hash_combine(h, pp.static_routes.size());
      // By value, not index: deleting an unrelated static from the same
      // device shifts indices and must not move this PEC.
      for (const auto& [dev, idx] : pp.static_routes) {
        h = hash_static_value(hash_combine(h, dev),
                              net.device(dev).statics[idx]);
      }
    }
    out[p] = scoped_residue(net, h, pec.lo, pec.hi);
  }
  return out;
}

PecClassSet compute_pec_classes(const Network& net, const PecSet& pecs,
                                const PecDependencies& deps,
                                const Policy& policy,
                                std::span<const std::uint8_t> needed,
                                std::span<const std::uint8_t> is_target) {
  const auto start = std::chrono::steady_clock::now();
  PecClassSet out;
  out.rep_of.assign(pecs.pecs.size(), kNoPec);
  out.members_of.resize(pecs.pecs.size());

  // A PEC is dedup-eligible when its exploration is self-contained: it reads
  // no upstream converged outcomes (depends_on empty, no self-loop) and no
  // needed PEC will read its outcomes (record_outcomes stays off, so the
  // §4.2/§4.3 pruning configuration is identical across the whole class).
  auto eligible = [&](PecId p) {
    if (needed[p] == 0 || is_target[p] == 0) return false;
    if (!deps.depends_on[p].empty() || deps.self_loop[p] != 0) return false;
    for (const PecId q : deps.dependents[p]) {
      if (needed[q] != 0) return false;
    }
    for (const PecPrefix& pp : pecs.pecs[p].prefixes) {
      for (const auto& [dev, idx] : pp.static_routes) {
        if (net.device(dev).statics[idx].via_ip) return false;
      }
    }
    return true;
  };

  struct Class {
    PecId rep = 0;
    std::vector<std::uint64_t> colors;   ///< representative's refined colors
    std::vector<NodeId> canon;           ///< representative's canonical order
  };
  std::unordered_map<std::uint64_t, std::vector<Class>> buckets;
  std::vector<NodeId> pi(net.topo.node_count());
  RouteMapCanon map_canon;
  std::vector<std::vector<RefineEdge>> topo_edges;

  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    if (needed[p] == 0) continue;
    out.rep_of[p] = p;
    if (!eligible(p)) {
      if (is_target[p] != 0) ++out.stats.classes;  // ineligible target: singleton
      continue;
    }
    if (topo_edges.empty()) topo_edges = topology_edges(net);
    PecShape shape = pec_shape(net, pecs.pecs[p], policy, topo_edges, map_canon);
    auto& bucket = buckets[shape.fingerprint];
    const std::vector<NodeId> canon = canonical_order(shape.colors);
    bool joined = false;
    for (Class& cls : bucket) {
      // Candidate bijection: i-th node in the representative's canonical
      // (color, id) order maps to the i-th in the member's. Equal color
      // multisets (same fingerprint) make the pairing color-aligned.
      bool color_aligned = true;
      for (std::size_t i = 0; i < canon.size(); ++i) {
        if (cls.colors[cls.canon[i]] != shape.colors[canon[i]]) {
          color_aligned = false;
          break;
        }
        pi[cls.canon[i]] = canon[i];
      }
      if (!color_aligned) continue;  // hash-collision bucket: not the same shape
      if (!validate_isomorphism(net, pecs.pecs[cls.rep], pecs.pecs[p], policy,
                                pi, map_canon)) {
        continue;
      }
      out.rep_of[p] = cls.rep;
      out.members_of[cls.rep].push_back(p);
      ++out.stats.deduped;
      joined = true;
      break;
    }
    if (!joined) {
      Class cls;
      cls.rep = p;
      cls.canon = canon;
      cls.colors = std::move(shape.colors);
      bucket.push_back(std::move(cls));
      ++out.stats.classes;
    }
  }
  // Singletons = classes that never gained a member (ineligible targets and
  // unmatched eligible PECs alike) — the honest-fallback count.
  std::size_t multi = 0;
  for (const auto& members : out.members_of) {
    if (!members.empty()) ++multi;
  }
  out.stats.singletons = out.stats.classes - multi;
  out.stats.fingerprint_time = std::chrono::steady_clock::now() - start;
  return out;
}

}  // namespace plankton
