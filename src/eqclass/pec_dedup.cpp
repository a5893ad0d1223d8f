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

/// Caches canonical_route_map across the many per-PEC refinement passes of
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
// color multiset a canonical form, and the (color, id) sort a candidate
// bijection; its ties break by node id, so unlike the colors the pairing
// depends on the numbering. Color values are scratch values of one
// compute_pec_classes call (nothing persists them): only the partitions they
// induce, within a PEC and across the PECs of the call, are the contract.
// ---------------------------------------------------------------------------

/// One directed topology adjacency by value: neighbor, cost of leaving over
/// the link, and the link's cost in the other direction.
struct Arc {
  NodeId to = kNoNode;
  std::uint32_t cost = 0;
  std::uint32_t ret = 0;
  friend auto operator<=>(const Arc&, const Arc&) = default;
};

Arc arc_of(const Topology& topo, const Adjacency& adj) {
  return Arc{adj.neighbor, adj.cost, topo.link(adj.link).cost_from(adj.neighbor)};
}

/// A PEC-specific refinement edge: a BGP session (footprint-canonical maps
/// in the label) or a static via-neighbor relation of the PEC's slice.
struct OverlayEdge {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint64_t label = 0;
};

/// The refinement and validation machinery of one compute_pec_classes call.
/// The topology is PEC-independent, so it is flattened once into CSR arrays:
/// per-node offsets into one array of arc targets, a cost label per arc, and
/// a per-node "has parallel links" flag. Each PEC adds only its own edges, as
/// an overlay list. Every buffer is sized once and reused across PECs.
class Classer {
 public:
  Classer(const Network& net, const Policy& policy);

  /// Refines `pec`'s coloring until its partition is stable and returns the
  /// PEC's fingerprint; the final colors are left in colors().
  std::uint64_t refine(const Pec& pec);
  [[nodiscard]] const std::vector<std::uint64_t>& colors() const { return color_; }

  /// Nodes ordered by (color, id): the canonical order used to construct the
  /// candidate bijection between two PECs with equal fingerprints.
  void canonical_order(std::span<const std::uint64_t> colors,
                       std::vector<NodeId>& out);

  /// Proves pi (nodes of `a`'s exploration onto `b`'s) is a configuration
  /// isomorphism.
  bool validate(const Pec& a, const Pec& b, std::span<const NodeId> pi);

 private:
  std::size_t count_distinct(std::span<const std::uint64_t> values);
  bool same_topology(std::span<const NodeId> pi);
  std::uint64_t session_hash(const BgpSession& s, std::uint64_t peer,
                             const Pec& pec) {
    std::uint64_t h = hash_combine(peer, s.ibgp ? 2u : 1u);
    h = hash_combine(h, map_canon_.of(s.import, pec));
    return hash_combine(h, map_canon_.of(s.export_, pec));
  }

  const Network& net_;
  const Policy& policy_;
  const std::size_t n_nodes_;
  RouteMapCanon map_canon_;

  // Topology CSR: arcs [offset_[n], offset_[n + 1]) leave node n.
  std::vector<std::uint32_t> offset_;
  std::vector<NodeId> arc_to_;
  std::vector<std::uint64_t> arc_label_;  ///< per-direction costs, hashed
  std::vector<std::uint8_t> parallel_;
  /// PEC-independent base color: OSPF/BGP role and the policy salts.
  std::vector<std::uint64_t> base_;

  // Refinement buffers.
  std::vector<OverlayEdge> overlay_;
  std::vector<std::uint64_t> color_;
  std::vector<std::uint64_t> mixed_;  ///< this round's hash_mix(color)
  /// Per-node sums: a prefix's static-route labels, then a round's edges.
  std::vector<std::uint64_t> sum_;
  std::vector<std::uint8_t> slice_flags_;
  std::vector<std::pair<std::uint64_t, NodeId>> order_;

  // count_distinct's open-addressing set, cleared by bumping its epoch.
  std::vector<std::uint64_t> set_key_;
  std::vector<std::uint32_t> set_stamp_;
  std::uint32_t set_epoch_ = 0;

  // Validation buffers: the image node's arcs, stamped by neighbor per epoch.
  std::vector<std::uint32_t> adj_stamp_;
  std::vector<Arc> adj_arc_;
  std::uint32_t adj_epoch_ = 0;
  std::vector<Arc> arcs_a_, arcs_b_;
  std::vector<std::uint64_t> hashes_a_, hashes_b_;
};

Classer::Classer(const Network& net, const Policy& policy)
    : net_(net), policy_(policy), n_nodes_(net.topo.node_count()) {
  offset_.assign(n_nodes_ + 1, 0);
  arc_to_.reserve(2 * net.topo.link_count());
  arc_label_.reserve(2 * net.topo.link_count());
  parallel_.assign(n_nodes_, 0);
  adj_stamp_.assign(n_nodes_, 0);
  for (NodeId n = 0; n < n_nodes_; ++n) {
    ++adj_epoch_;
    for (const Adjacency& adj : net.topo.neighbors(n)) {
      const Arc arc = arc_of(net.topo, adj);
      arc_to_.push_back(arc.to);
      arc_label_.push_back(
          hash_combine(hash_combine(0x701070ull, arc.cost), arc.ret));
      if (adj_stamp_[arc.to] == adj_epoch_) parallel_[n] = 1;
      adj_stamp_[arc.to] = adj_epoch_;
    }
    offset_[n + 1] = static_cast<std::uint32_t>(arc_to_.size());
  }
  adj_arc_.resize(n_nodes_);

  base_.resize(n_nodes_);
  for (NodeId n = 0; n < n_nodes_; ++n) {
    const auto& dev = net.device(n);
    base_[n] = hash_combine(hash_mix(dev.ospf.enabled ? 2 : 1), dev.bgp ? 2u : 1u);
  }
  // Sources and interesting nodes get position-unique salts, so they sit
  // alone in their color class and the canonical bijection can only map
  // them to themselves.
  const auto sources = policy.sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    base_[sources[i]] = hash_combine(base_[sources[i]], 0x50AD0000ull + i);
  }
  const auto interesting = policy.interesting();
  for (std::size_t i = 0; i < interesting.size(); ++i) {
    base_[interesting[i]] = hash_combine(base_[interesting[i]], 0x17770000ull + i);
  }

  color_.resize(n_nodes_);
  mixed_.resize(n_nodes_);
  sum_.assign(n_nodes_, 0);
  slice_flags_.assign(n_nodes_, 0);
  std::size_t slots = 16;
  while (slots < 2 * n_nodes_) slots *= 2;
  set_key_.resize(slots);
  set_stamp_.assign(slots, 0);
}

std::size_t Classer::count_distinct(std::span<const std::uint64_t> values) {
  ++set_epoch_;
  const std::size_t mask = set_key_.size() - 1;
  std::size_t distinct = 0;
  for (const std::uint64_t v : values) {
    std::size_t i = v & mask;  // colors are hash_mix outputs: low bits spread
    while (set_stamp_[i] == set_epoch_ && set_key_[i] != v) i = (i + 1) & mask;
    if (set_stamp_[i] == set_epoch_) continue;
    set_stamp_[i] = set_epoch_;
    set_key_[i] = v;
    ++distinct;
  }
  return distinct;
}

std::uint64_t Classer::refine(const Pec& pec) {
  // Relational edges beyond the topology that the refinement (and the
  // exploration) sees: BGP sessions with footprint-canonical maps, and
  // static-route via-neighbor relations from this PEC's slice.
  overlay_.clear();
  for (NodeId n = 0; n < n_nodes_; ++n) {
    const auto& dev = net_.device(n);
    if (!dev.bgp) continue;
    for (const BgpSession& s : dev.bgp->sessions) {
      std::uint64_t label = hash_mix(s.ibgp ? 0xB6B1ull : 0xB6B0ull);
      label = hash_combine(label, map_canon_.of(s.import, pec));
      label = hash_combine(label, map_canon_.of(s.export_, pec));
      overlay_.push_back(OverlayEdge{n, s.peer, label});
    }
  }
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    for (const auto& [dev, idx] : pec.prefixes[pi].static_routes) {
      const StaticRoute& sr = net_.device(dev).statics[idx];
      if (sr.via_neighbor == kNoNode) continue;
      overlay_.push_back(OverlayEdge{dev, sr.via_neighbor, hash_combine(0x57A7ull, pi)});
    }
  }

  // Base colors: configuration role and policy salts (base_), then the
  // PEC's slice, prefix by prefix.
  color_ = base_;
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    const PecPrefix& pp = pec.prefixes[pi];
    for (const NodeId n : pp.ospf_origins) slice_flags_[n] |= 1;
    for (const NodeId n : pp.bgp_origins) slice_flags_[n] |= 2;
    if (pp.prefix.length() == 32) {
      for (NodeId n = 0; n < n_nodes_; ++n) {
        if (loopback_delivers(net_, pec, pi, n)) slice_flags_[n] |= 4;
      }
    }
    for (const auto& [dev, idx] : pp.static_routes) {
      // via_neighbor is a relation (overlay above); drop/forward is a label.
      const StaticRoute& sr = net_.device(dev).statics[idx];
      sum_[dev] += hash_combine(0x13 + pi * 8, sr.drop ? 2u : 1u);
    }
    for (NodeId n = 0; n < n_nodes_; ++n) {
      std::uint64_t h = color_[n];
      const std::uint8_t f = slice_flags_[n];
      if ((f & 1) != 0) h = hash_combine(h, 0x10 + pi * 8);
      if ((f & 2) != 0) h = hash_combine(h, 0x11 + pi * 8);
      if ((f & 4) != 0) h = hash_combine(h, 0x12 + pi * 8);
      color_[n] = hash_combine(h, sum_[n]);  // order-free multiset sum
      slice_flags_[n] = 0;
      sum_[n] = 0;
    }
  }

  // Refine until the partition stabilizes. Each round's color is a function
  // of the previous round's, so the partition only ever gets finer; when the
  // number of distinct colors stops growing, it is stable. A node folds its
  // edges as an order-free sum, so no round sorts anything.
  std::size_t distinct = 0;
  for (std::size_t round = 0; round <= n_nodes_; ++round) {
    const std::size_t d = count_distinct(color_);
    if (round > 0 && d == distinct) break;
    distinct = d;
    for (NodeId n = 0; n < n_nodes_; ++n) mixed_[n] = hash_mix(color_[n]);
    for (NodeId n = 0; n < n_nodes_; ++n) {
      std::uint64_t sum = 0;
      for (std::uint32_t e = offset_[n]; e < offset_[n + 1]; ++e) {
        sum += hash_mix(arc_label_[e] ^ mixed_[arc_to_[e]]);
      }
      sum_[n] = sum;
    }
    for (const OverlayEdge& e : overlay_) {
      sum_[e.from] += hash_mix(e.label ^ mixed_[e.to]);
    }
    for (NodeId n = 0; n < n_nodes_; ++n) {
      color_[n] = hash_combine(color_[n], sum_[n]);
      sum_[n] = 0;
    }
  }

  // Canonical form: the color multiset (an order-free sum) + prefix
  // structure. Prefix *values* are deliberately absent — only lengths and
  // the footprints already folded into the colors matter to the exploration.
  std::uint64_t fp = 0;
  for (const std::uint64_t c : color_) fp += hash_mix(c);
  fp = hash_combine(fp, pec.prefixes.size());
  for (const PecPrefix& pp : pec.prefixes) {
    fp = hash_combine(fp, pp.prefix.length());
  }
  return fp;
}

void Classer::canonical_order(std::span<const std::uint64_t> colors,
                              std::vector<NodeId>& out) {
  order_.clear();
  for (NodeId n = 0; n < colors.size(); ++n) order_.emplace_back(colors[n], n);
  std::sort(order_.begin(), order_.end());
  out.clear();
  for (const auto& [color, n] : order_) out.push_back(n);
}

// ---------------------------------------------------------------------------
// Validation: prove the candidate bijection is a configuration isomorphism.
// The fingerprint is a hash — collisions and refinement-blind asymmetries
// both die here, degrading the member to its own class instead of producing
// an unsound verdict transfer.
// ---------------------------------------------------------------------------

bool sorted_equal(std::vector<std::uint64_t>& a, std::vector<std::uint64_t>& b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// Topology automorphism: per node, the multiset of (mapped neighbor,
/// out-cost, return-cost) must be preserved, compared by value. Without
/// parallel links a node's neighbors are distinct, so the image node's
/// adjacency is stamped into per-neighbor arrays and each mapped arc is
/// looked up; nodes with parallel links compare sorted arc lists instead.
bool Classer::same_topology(std::span<const NodeId> pi) {
  for (NodeId n = 0; n < n_nodes_; ++n) {
    const NodeId m = pi[n];
    const std::span<const Adjacency> an = net_.topo.neighbors(n);
    const std::span<const Adjacency> am = net_.topo.neighbors(m);
    if (an.size() != am.size()) return false;
    if (parallel_[n] != 0 || parallel_[m] != 0) {
      arcs_a_.clear();
      arcs_b_.clear();
      for (const Adjacency& adj : an) {
        Arc arc = arc_of(net_.topo, adj);
        arc.to = pi[arc.to];
        arcs_a_.push_back(arc);
      }
      for (const Adjacency& adj : am) arcs_b_.push_back(arc_of(net_.topo, adj));
      std::sort(arcs_a_.begin(), arcs_a_.end());
      std::sort(arcs_b_.begin(), arcs_b_.end());
      if (arcs_a_ != arcs_b_) return false;
      continue;
    }
    ++adj_epoch_;
    for (const Adjacency& adj : am) {
      adj_stamp_[adj.neighbor] = adj_epoch_;
      adj_arc_[adj.neighbor] = arc_of(net_.topo, adj);
    }
    for (const Adjacency& adj : an) {
      const Arc arc = arc_of(net_.topo, adj);
      const NodeId x = pi[arc.to];
      if (adj_stamp_[x] != adj_epoch_ || adj_arc_[x].cost != arc.cost ||
          adj_arc_[x].ret != arc.ret) {
        return false;
      }
    }
  }
  return true;
}

bool Classer::validate(const Pec& a, const Pec& b, std::span<const NodeId> pi) {
  // Policy fixed points: declared special nodes must be preserved exactly —
  // the policy predicate is only renaming-invariant over undeclared nodes
  // (the same contract policy pruning and DEC merging already assume).
  for (const NodeId s : policy_.sources()) {
    if (pi[s] != s) return false;
  }
  for (const NodeId s : policy_.interesting()) {
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

  if (!same_topology(pi)) return false;

  // Device configuration equivalence under pi.
  for (NodeId n = 0; n < n_nodes_; ++n) {
    const auto& da = net_.device(n);
    const auto& db = net_.device(pi[n]);
    if (da.ospf.enabled != db.ospf.enabled) return false;
    if (da.bgp.has_value() != db.bgp.has_value()) return false;
    if (da.bgp) {
      hashes_a_.clear();
      hashes_b_.clear();
      for (const BgpSession& s : da.bgp->sessions) {
        hashes_a_.push_back(session_hash(s, pi[s.peer], a));
      }
      for (const BgpSession& s : db.bgp->sessions) {
        hashes_b_.push_back(session_hash(s, s.peer, b));
      }
      if (!sorted_equal(hashes_a_, hashes_b_)) return false;
    }
  }

  // Per-prefix slice correspondence.
  for (std::size_t i = 0; i < a.prefixes.size(); ++i) {
    const PecPrefix& pa = a.prefixes[i];
    const PecPrefix& pb = b.prefixes[i];
    const auto same_nodes = [&](const std::vector<NodeId>& va,
                                const std::vector<NodeId>& vb) {
      hashes_a_.clear();
      for (const NodeId x : va) hashes_a_.push_back(pi[x]);
      hashes_b_.assign(vb.begin(), vb.end());
      return sorted_equal(hashes_a_, hashes_b_);
    };
    if (!same_nodes(pa.ospf_origins, pb.ospf_origins)) return false;
    if (!same_nodes(pa.bgp_origins, pb.bgp_origins)) return false;
    hashes_a_.clear();
    hashes_b_.clear();
    for (const auto& [dev, idx] : pa.static_routes) {
      const StaticRoute& sr = net_.device(dev).statics[idx];
      if (sr.via_ip) return false;  // recursive: outcome-coupled, never dedup
      hashes_a_.push_back(hash_combine(hash_combine(pi[dev], sr.drop ? 2u : 1u),
                                       sr.drop ? kNoNode : pi[sr.via_neighbor]));
    }
    for (const auto& [dev, idx] : pb.static_routes) {
      const StaticRoute& sr = net_.device(dev).statics[idx];
      if (sr.via_ip) return false;
      hashes_b_.push_back(hash_combine(hash_combine(std::uint64_t{dev}, sr.drop ? 2u : 1u),
                                       sr.drop ? kNoNode : sr.via_neighbor));
    }
    if (!sorted_equal(hashes_a_, hashes_b_)) return false;
    // /32 loopback local delivery must be preserved node-by-node.
    if (pa.prefix.length() == 32 || pb.prefix.length() == 32) {
      for (NodeId n = 0; n < n_nodes_; ++n) {
        if (loopback_delivers(net_, a, i, n) != loopback_delivers(net_, b, i, pi[n])) {
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
  Classer classer(net, policy);
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
    std::vector<std::uint64_t> colors;  ///< representative's refined colors
    std::vector<NodeId> canon;          ///< representative's canonical order
  };
  std::unordered_map<std::uint64_t, std::vector<Class>> buckets;
  std::vector<NodeId> pi(net.topo.node_count());
  std::vector<NodeId> canon;

  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    if (needed[p] == 0) continue;
    out.rep_of[p] = p;
    if (!eligible(p)) {
      if (is_target[p] != 0) ++out.stats.classes;  // ineligible target: singleton
      continue;
    }
    auto& bucket = buckets[classer.refine(pecs.pecs[p])];
    const std::vector<std::uint64_t>& colors = classer.colors();
    classer.canonical_order(colors, canon);
    bool joined = false;
    for (const Class& cls : bucket) {
      // Candidate bijection: i-th node in the representative's canonical
      // (color, id) order maps to the i-th in the member's. Equal color
      // multisets (same fingerprint) make the pairing color-aligned.
      bool color_aligned = true;
      for (std::size_t i = 0; i < canon.size(); ++i) {
        if (cls.colors[cls.canon[i]] != colors[canon[i]]) {
          color_aligned = false;
          break;
        }
        pi[cls.canon[i]] = canon[i];
      }
      if (!color_aligned) continue;  // hash-collision bucket: not the same shape
      if (!classer.validate(pecs.pecs[cls.rep], pecs.pecs[p], pi)) continue;
      out.rep_of[p] = cls.rep;
      out.members_of[cls.rep].push_back(p);
      ++out.stats.deduped;
      joined = true;
      break;
    }
    if (!joined) {
      Class cls;
      cls.rep = p;
      cls.colors = colors;
      cls.canon = canon;
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
  out.stats.classing_time = std::chrono::steady_clock::now() - start;
  return out;
}

}  // namespace plankton
