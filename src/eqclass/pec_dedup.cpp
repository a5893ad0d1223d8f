#include "eqclass/pec_dedup.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>
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
// Classing by individualization–refinement (McKay & Piperno, "Practical graph
// isomorphism II", 2014).
//
// A PEC is a labelled graph: nodes carry their configuration role, the policy
// salts and the PEC's slice; arcs are topology links with per-direction
// costs, plus the PEC's overlay (BGP sessions with footprint-canonical maps,
// static via relations). An ordered partition of the nodes into cells is
// refined until it is equitable: every node of a cell sees the same labelled
// arcs into every cell. Every step is keyed on positions and on invariant
// values (hashes of labels and order-free sums), never on node ids, so
// isomorphic PECs produce equal refinement traces and position-aligned
// cells. The trace is therefore the PEC's fingerprint.
//
// Refinement alone cannot tell a symmetric fabric's nodes apart (every edge
// switch of a fat tree looks alike until one is named). A representative
// records one individualization–refinement path: it names one node of the
// first multi-node cell that is not a twin cell, refines, and repeats. A
// twin cell holds nodes with identical labelled neighbours, so any order of
// it is as good as any other and naming one buys nothing. A member with an
// equal fingerprint replays the path: it names each node of its own matching
// cell in turn, keeps a choice whose trace equals the representative's at
// that level, and backtracks otherwise, within a fixed step budget. At the
// leaf, only singletons and twin cells remain, and the position-aligned
// bijection goes to validate(), which is the only proof of a class.
//
// Every validated bijection passed same_topology(), so it is an automorphism
// of the topology, and it is kept as a generator. Before a member searches,
// it tries the orbit of its class's anchor under those generators (McKay &
// Piperno's automorphism pruning): when its own anchor lies in that orbit,
// the product of generators along the Schreier path maps the
// representative's anchor onto it, is a topology automorphism by closure,
// and proves the member once it passes same_config().
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

/// A member may spend this many individualizations beyond the length of the
/// representative's path before its search gives up. A symmetric fabric
/// needs none: every choice it makes replays on the first try.
constexpr std::size_t kSearchSlack = 64;

/// One representative's individualization–refinement path.
struct IrPath {
  struct Level {
    std::uint32_t start = 0;  ///< position of the cell a node was named in
    std::uint64_t trace = 0;  ///< refinement trace after naming it
  };
  std::vector<Level> levels;
  std::vector<NodeId> leaf;  ///< node order of the leaf partition
};

enum class Match : std::uint8_t { kFound, kNone, kBudget };

/// A class's anchor: the node at the first level-0 position that the
/// representative's slice made a singleton. A position, not a node id, so
/// every member with the same fingerprint has its own anchor there. Once
/// generators exist, `slot` names the Schreier vector of the anchor's orbit,
/// closed under the first `seen` generators.
struct Orbit {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::uint32_t pos = kNone;
  NodeId anchor = kNoNode;
  std::uint32_t slot = kNone;
  std::uint32_t seen = 0;
};

/// The refinement, search and validation machinery of one
/// compute_pec_classes call. The topology is PEC-independent, so it is
/// flattened once into CSR arrays (per-node offsets into one array of arc
/// targets, a key per arc, a per-node "has parallel links" flag), and the
/// base partition (roles, policy salts, topology) is refined once. Each PEC
/// restores that partition and adds only its own slice and overlay. Every
/// buffer is sized once and reused across PECs.
class Classer {
 public:
  Classer(const Network& net, const Policy& policy);

  /// Restores the base partition, splits off `pec`'s slice, refines over
  /// its overlay arcs, and returns the PEC's fingerprint: the refinement
  /// trace plus its prefix lengths. The refined partition is level 0 of
  /// record_path(), match() and the orbit calls.
  std::uint64_t load(const Pec& pec);

  /// Records the loaded PEC's individualization–refinement path.
  void record_path(IrPath& out);

  /// Searches the loaded PEC (`pec`) for a leaf that replays `path`, the
  /// path of representative `rep`, and whose position-aligned bijection
  /// validates; that bijection becomes a generator. Leaves the partition at
  /// level 0 unless the result is kFound.
  Match match(const IrPath& path, const Pec& rep, const Pec& pec);

  /// The anchor of the loaded PEC as a new representative, at level 0.
  Orbit anchor() const;

  /// Whether the loaded PEC (`pec`, at level 0) joins the class of `rep`
  /// through `orbit`: its anchor lies in the orbit, and the product of
  /// generators that maps the representative's anchor onto it passes
  /// same_config(). Leaves the partition unchanged.
  bool orbit_match(Orbit& orbit, const Pec& rep, const Pec& pec);

  /// Proves pi (nodes of `a`'s exploration onto `b`'s) is a configuration
  /// isomorphism: a topology automorphism that carries `a`'s configuration
  /// onto `b`'s.
  bool validate(const Pec& a, const Pec& b, std::span<const NodeId> pi) {
    return same_topology(pi) && same_config(a, b, pi);
  }

 private:
  /// A node's place: its position in elems_ and the start of its cell.
  struct Place {
    std::uint32_t pos = 0;
    std::uint32_t cell = 0;
  };
  /// What a queued cell still owes as a splitter: its overlay arcs only
  /// (the partition is already stable over its topology arcs), or every arc.
  enum Owed : std::uint8_t { kNothing = 0, kOverlayArcs = 1, kAllArcs = 2 };
  /// Per cell start: one past the cell's end, how many of its nodes the
  /// current splitter touched (they sit at the cell's end), what it owes as
  /// a queued splitter, and whether it is a twin cell. No splitter can split
  /// a twin cell, so refinement does not touch its nodes.
  struct Cell {
    std::uint32_t end = 0;
    std::uint32_t touched = 0;
    Owed owed = kNothing;
    std::uint8_t twin = 0;
  };
  /// A split, undone by restoring the cell's end and twin flag.
  struct Split {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
    std::uint8_t twin = 0;
  };
  /// An arc as refinement sees it: the far node and the key it adds to its
  /// invariant when this node is in a splitter.
  struct KeyedArc {
    NodeId to = kNoNode;
    std::uint64_t key = 0;
  };

  // Incremental cell refinement over an ordered partition. Cells are ranges
  // of elems_; a cell is named by its start position.
  void touch(NodeId v, std::uint64_t key);
  void split_touched(std::uint64_t step);
  std::uint64_t split_cell(std::uint32_t s);
  void push_splitter(std::uint32_t s, Owed owed) {
    if (cells_[s].owed == kNothing) queue_.push_back(s);
    cells_[s].owed = std::max(cells_[s].owed, owed);
  }
  void refine();
  void individualize(NodeId v);
  void undo_to(std::size_t mark);
  /// Whether nodes [b, e) of elems_ form a twin cell: more than one node,
  /// all with equal twin hashes.
  bool twins(std::uint32_t b, std::uint32_t e) const {
    if (e - b < 2) return false;
    for (std::uint32_t i = b + 1; i < e; ++i) {
      if (twin_[elems_[i]] != twin_[elems_[b]]) return false;
    }
    return true;
  }
  /// Start of the first multi-node cell at or after `cursor` that is not a
  /// twin cell, or n_nodes_ when there is none (a leaf).
  std::uint32_t next_target(std::uint32_t cursor) const {
    std::uint32_t s = cursor;
    while (s < n_nodes_ && (cells_[s].end - s == 1 || cells_[s].twin != 0)) {
      s = cells_[s].end;
    }
    return s;
  }
  void build_overlay(const Pec& pec);

  /// Closes `orbit` under every generator kept so far.
  void extend(Orbit& orbit);

  bool same_topology(std::span<const NodeId> pi);
  bool same_config(const Pec& a, const Pec& b, std::span<const NodeId> pi);
  std::uint64_t session_hash(const BgpSession& s, std::uint64_t peer,
                             const Pec& pec) {
    std::uint64_t h = hash_combine(peer, s.ibgp ? 2u : 1u);
    h = hash_combine(h, map_canon_.of(s.import, pec));
    return hash_combine(h, map_canon_.of(s.export_, pec));
  }

  const Network& net_;
  const Policy& policy_;
  const std::uint32_t n_nodes_;
  RouteMapCanon map_canon_;

  // Topology CSR: arcs [offset_[n], offset_[n + 1]) leave node n, keyed by
  // both directions' costs.
  std::vector<std::uint32_t> offset_;
  std::vector<KeyedArc> arcs_;
  std::vector<std::uint8_t> parallel_;
  /// Per node: an order-free hash of its labelled topology neighbours.
  /// With the overlay's share added (twin_), equal values across a cell
  /// mark a twin cell.
  std::vector<std::uint64_t> twin_base_;

  // The loaded PEC's overlay, as a CSR over both directions of each edge,
  // and its twin hashes: twin_base_ plus the overlay's share.
  std::vector<OverlayEdge> overlay_;
  std::vector<std::uint32_t> ov_offset_;
  std::vector<KeyedArc> ov_arcs_;
  std::vector<std::uint64_t> twin_;

  // The ordered partition and the refinement's scratch. Between calls the
  // queue is empty and every touched count, owed splitter and invariant is
  // 0.
  std::vector<NodeId> elems_;
  std::vector<Place> place_;  ///< by node
  std::vector<Cell> cells_;   ///< by cell start
  std::vector<std::uint64_t> inv_;
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> touched_cells_;
  std::vector<std::uint32_t> cuts_;
  std::vector<NodeId> splitter_;
  /// One entry per split, undone in reverse.
  std::vector<Split> trail_;
  std::uint64_t trace_ = 0;

  // The refined PEC-independent base partition every load() restores, and
  // the starts of its multi-node cells in position order.
  std::vector<NodeId> base_elems_;
  std::vector<Place> base_place_;
  std::vector<Cell> base_cells_;
  std::vector<std::uint32_t> base_multi_;

  // load() scratch: per-node slice labels.
  std::vector<std::uint64_t> slice_;
  std::vector<std::uint8_t> in_slice_;
  std::vector<NodeId> slice_nodes_;

  // match() scratch: one frame per level, each level's candidates (its
  // target cell, copied because undo restores a cell's nodes but not their
  // order), and the leaf bijection.
  struct Frame {
    std::uint32_t start = 0;
    std::size_t mark = 0;   ///< trail_ size when the level was entered
    std::size_t begin = 0;  ///< the level's candidates in candidates_
    std::size_t next = 0;
    std::size_t end = 0;
  };
  std::vector<Frame> frames_;
  std::vector<NodeId> candidates_;
  std::vector<NodeId> pi_;

  // Orbit buffers. Generator g is gens_[g * n_nodes_, (g + 1) * n_nodes_).
  // Each Schreier vector is n_nodes_ links of schreier_, one per node: the
  // node it was reached from and the generator that reached it (kOut when
  // the node is not in the orbit, kRoot for the anchor).
  struct Link {
    static constexpr std::uint32_t kOut = ~std::uint32_t{0};
    static constexpr std::uint32_t kRoot = kOut - 1;
    NodeId from = kNoNode;
    std::uint32_t gen = kOut;
  };
  std::vector<NodeId> gens_;
  std::vector<Link> schreier_;
  std::vector<NodeId> orbit_queue_;
  std::vector<std::uint32_t> path_gens_;
  std::vector<NodeId> sigma_;

  // Validation buffers: the image node's arcs, stamped by neighbor per epoch.
  std::vector<std::uint32_t> adj_stamp_;
  std::vector<Arc> adj_arc_;
  std::uint32_t adj_epoch_ = 0;
  std::vector<Arc> arcs_a_, arcs_b_;
  std::vector<std::uint64_t> hashes_a_, hashes_b_;
};

Classer::Classer(const Network& net, const Policy& policy)
    : net_(net), policy_(policy),
      n_nodes_(static_cast<std::uint32_t>(net.topo.node_count())) {
  offset_.assign(n_nodes_ + 1, 0);
  arcs_.reserve(2 * net.topo.link_count());
  parallel_.assign(n_nodes_, 0);
  twin_base_.assign(n_nodes_, 0);
  adj_stamp_.assign(n_nodes_, 0);
  for (NodeId n = 0; n < n_nodes_; ++n) {
    ++adj_epoch_;
    for (const Adjacency& adj : net.topo.neighbors(n)) {
      const Arc arc = arc_of(net.topo, adj);
      const std::uint64_t key =
          hash_mix(hash_combine(hash_combine(0x701070ull, arc.cost), arc.ret));
      arcs_.push_back(KeyedArc{arc.to, key});
      twin_base_[n] += hash_mix(key ^ hash_mix(arc.to));
      if (adj_stamp_[arc.to] == adj_epoch_) parallel_[n] = 1;
      adj_stamp_[arc.to] = adj_epoch_;
    }
    offset_[n + 1] = static_cast<std::uint32_t>(arcs_.size());
  }
  adj_arc_.resize(n_nodes_);
  ov_offset_.assign(n_nodes_ + 1, 0);
  twin_ = twin_base_;

  // Base colors: OSPF/BGP role. Sources and interesting nodes get
  // position-unique salts, so they sit alone in their cells and every leaf
  // bijection maps them to themselves.
  std::vector<std::pair<std::uint64_t, NodeId>> order(n_nodes_);
  for (NodeId n = 0; n < n_nodes_; ++n) {
    const auto& dev = net.device(n);
    order[n] = {hash_combine(hash_mix(dev.ospf.enabled ? 2 : 1), dev.bgp ? 2u : 1u), n};
  }
  const auto sources = policy.sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    auto& color = order[sources[i]].first;
    color = hash_combine(color, 0x50AD0000ull + i);
  }
  const auto interesting = policy.interesting();
  for (std::size_t i = 0; i < interesting.size(); ++i) {
    auto& color = order[interesting[i]].first;
    color = hash_combine(color, 0x17770000ull + i);
  }
  std::sort(order.begin(), order.end());

  // One cell per color, each a splitter, refined over the topology.
  elems_.resize(n_nodes_);
  place_.resize(n_nodes_);
  cells_.resize(n_nodes_);
  inv_.assign(n_nodes_, 0);
  for (std::uint32_t i = 0; i < n_nodes_; ++i) {
    elems_[i] = order[i].second;
    place_[elems_[i]].pos = i;
  }
  for (std::uint32_t s = 0, e = 0; s < n_nodes_; s = e) {
    while (e < n_nodes_ && order[e].first == order[s].first) ++e;
    for (std::uint32_t i = s; i < e; ++i) place_[elems_[i]].cell = s;
    cells_[s].end = e;
    cells_[s].twin = twins(s, e) ? 1 : 0;
    push_splitter(s, kAllArcs);
  }
  refine();
  base_elems_ = elems_;
  base_place_ = place_;
  base_cells_ = cells_;
  for (std::uint32_t c = 0; c < n_nodes_; c = cells_[c].end) {
    if (cells_[c].end - c > 1) base_multi_.push_back(c);
  }

  slice_.assign(n_nodes_, 0);
  in_slice_.assign(n_nodes_, 0);
  pi_.resize(n_nodes_);
  sigma_.resize(n_nodes_);
}

void Classer::touch(NodeId v, std::uint64_t key) {
  inv_[v] += key;
  Place& pv = place_[v];
  Cell& c = cells_[pv.cell];
  const std::uint32_t first_touched = c.end - c.touched;
  if (pv.pos >= first_touched) return;
  if (c.touched++ == 0) touched_cells_.push_back(pv.cell);
  // Move v to the front of the cell's touched tail.
  const std::uint32_t q = first_touched - 1;
  const NodeId u = elems_[q];
  elems_[pv.pos] = u;
  place_[u].pos = pv.pos;
  elems_[q] = v;
  pv.pos = q;
}

/// Splits every touched cell, in position order (not discovery order: the
/// splits and the splitters they queue must not depend on node ids), and
/// folds `step` and the splits into the trace.
void Classer::split_touched(std::uint64_t step) {
  std::sort(touched_cells_.begin(), touched_cells_.end());
  for (const std::uint32_t s : touched_cells_) step += split_cell(s);
  touched_cells_.clear();
  trace_ = hash_combine(trace_, step);
}

/// Splits cell `s` by invariant: its untouched nodes keep the start, then
/// one cell per touched invariant value, in ascending value order. Returns
/// an order-free hash of the parts (start, size, value). Hopcroft's rule
/// queues every new cell but the largest: invariants are sums over a
/// splitter's arcs, so the largest part's sums follow from the whole's and
/// the others'. The largest part inherits what `s` still owed (its overlay
/// arcs), and when `s` owed every arc, so does every part.
std::uint64_t Classer::split_cell(std::uint32_t s) {
  const std::uint32_t e = cells_[s].end;
  const std::uint32_t t = e - cells_[s].touched;
  cells_[s].touched = 0;
  const auto value = [this](std::uint32_t i) { return inv_[elems_[i]]; };
  for (std::uint32_t i = t + 1; i < e; ++i) {
    if (value(i) == value(t)) continue;
    std::sort(elems_.begin() + t, elems_.begin() + e,
              [this](NodeId a, NodeId b) { return inv_[a] < inv_[b]; });
    for (std::uint32_t j = t; j < e; ++j) place_[elems_[j]].pos = j;
    break;
  }
  std::uint64_t parts = 0;
  cuts_.clear();
  if (t > s) {
    cuts_.push_back(s);
    parts += hash_mix((std::uint64_t{s} << 32) | (t - s));
  }
  for (std::uint32_t g = t; g < e;) {
    const std::uint64_t v = value(g);
    std::uint32_t ge = g + 1;
    while (ge < e && value(ge) == v) ++ge;
    parts += hash_mix(v ^ ((std::uint64_t{g} << 32) | (ge - g)));
    cuts_.push_back(g);
    for (std::uint32_t i = g; i < ge; ++i) inv_[elems_[i]] = 0;
    g = ge;
  }
  if (cuts_.size() == 1) return parts;
  const std::uint8_t twin = cells_[s].twin;
  trail_.push_back(Split{s, e, twin});
  cuts_.push_back(e);
  std::uint32_t largest = 0;
  for (std::uint32_t k = 1; k + 1 < cuts_.size(); ++k) {
    if (cuts_[k + 1] - cuts_[k] > cuts_[largest + 1] - cuts_[largest]) largest = k;
  }
  const Owed owed = cells_[s].owed;  // part 0 keeps s's queue entry
  for (std::uint32_t k = 0; k + 1 < cuts_.size(); ++k) {
    const std::uint32_t g = cuts_[k];
    const std::uint32_t ge = cuts_[k + 1];
    cells_[g].end = ge;
    cells_[g].twin = ge - g > 1 && (twin != 0 || twins(g, ge)) ? 1 : 0;
    if (g != s) {
      for (std::uint32_t i = g; i < ge; ++i) place_[elems_[i]].cell = g;
    }
    if (owed == kAllArcs || k != largest) {
      push_splitter(g, kAllArcs);
    } else if (owed == kOverlayArcs) {
      push_splitter(g, kOverlayArcs);
    }
  }
  return parts;
}

void Classer::refine() {
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::uint32_t ws = queue_[head];
    const Owed owed = cells_[ws].owed;
    cells_[ws].owed = kNothing;
    // Twins reach the same nodes with the same keys, so a twin cell's first
    // node stands for all of them at `mult` times the key. Otherwise the
    // nodes are copied: touching moves nodes inside their cells.
    std::uint64_t mult = 1;
    if (cells_[ws].twin != 0) {
      mult = cells_[ws].end - ws;
      splitter_.assign(1, elems_[ws]);
    } else {
      splitter_.assign(elems_.begin() + ws, elems_.begin() + cells_[ws].end);
    }
    const auto reach = [this, mult](const KeyedArc& arc) {
      if (cells_[place_[arc.to].cell].twin == 0) touch(arc.to, arc.key * mult);
    };
    for (const NodeId w : splitter_) {
      if (owed == kAllArcs) {
        for (std::uint32_t a = offset_[w]; a < offset_[w + 1]; ++a) reach(arcs_[a]);
      }
      for (std::uint32_t a = ov_offset_[w]; a < ov_offset_[w + 1]; ++a) {
        reach(ov_arcs_[a]);
      }
    }
    split_touched(ws);
  }
  queue_.clear();
}

/// Names `v`: it leaves its cell as a singleton placed at the cell's end,
/// the one new cell Hopcroft's rule queues.
void Classer::individualize(NodeId v) {
  const std::uint32_t s = place_[v].cell;
  const std::uint32_t e = cells_[s].end;
  const std::uint32_t q = e - 1;
  const NodeId u = elems_[q];
  elems_[place_[v].pos] = u;
  place_[u].pos = place_[v].pos;
  elems_[q] = v;
  place_[v] = Place{q, q};
  trail_.push_back(Split{s, e, cells_[s].twin});
  cells_[s].end = q;
  cells_[s].twin = q - s > 1 && (cells_[s].twin != 0 || twins(s, q)) ? 1 : 0;
  cells_[q].end = e;
  cells_[q].twin = 0;
  trace_ = hash_mix(q);
  push_splitter(q, kAllArcs);
}

/// Merges back every split made since the trail had `mark` entries. The
/// cells regain their node sets; the order inside a cell may differ.
void Classer::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const Split split = trail_.back();
    trail_.pop_back();
    for (std::uint32_t i = cells_[split.start].end; i < split.end; ++i) {
      place_[elems_[i]].cell = split.start;
    }
    cells_[split.start].end = split.end;
    cells_[split.start].twin = split.twin;
  }
}

void Classer::build_overlay(const Pec& pec) {
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
  std::fill(ov_offset_.begin(), ov_offset_.end(), 0);
  twin_ = twin_base_;
  if (overlay_.empty()) return;
  // Both directions of each edge, keyed by which end the splitter holds.
  for (const OverlayEdge& e : overlay_) {
    ++ov_offset_[e.from + 1];
    ++ov_offset_[e.to + 1];
  }
  for (NodeId n = 0; n < n_nodes_; ++n) ov_offset_[n + 1] += ov_offset_[n];
  ov_arcs_.resize(ov_offset_[n_nodes_]);
  for (const OverlayEdge& e : overlay_) {
    const std::uint64_t in = hash_mix(e.label ^ 0x1);   // e.to's key
    const std::uint64_t out = hash_mix(e.label ^ 0x2);  // e.from's key
    ov_arcs_[ov_offset_[e.from]++] = KeyedArc{e.to, in};
    ov_arcs_[ov_offset_[e.to]++] = KeyedArc{e.from, out};
    twin_[e.from] += hash_mix(out ^ hash_mix(e.to));
    twin_[e.to] += hash_mix(in ^ hash_mix(e.from));
  }
  // The fill advanced each offset to its node's end: shift back.
  for (NodeId n = n_nodes_; n > 0; --n) ov_offset_[n] = ov_offset_[n - 1];
  ov_offset_[0] = 0;
}

std::uint64_t Classer::load(const Pec& pec) {
  elems_ = base_elems_;
  place_ = base_place_;
  cells_ = base_cells_;
  trail_.clear();
  build_overlay(pec);
  if (!overlay_.empty()) {
    // The base twin flags hold for the topology; the overlay may break them.
    for (std::uint32_t c = 0; c < n_nodes_; c = cells_[c].end) {
      cells_[c].twin = twins(c, cells_[c].end) ? 1 : 0;
    }
  }
  trace_ = hash_mix(0x511CEull);

  // The PEC's slice, prefix by prefix: origin bits, /32 loopback delivery,
  // and static-route labels (via_neighbor is a relation, in the overlay;
  // drop/forward is a label). A node's labels fold as an order-free sum.
  const auto add = [this](NodeId n, std::uint64_t label) {
    if (in_slice_[n] == 0) {
      in_slice_[n] = 1;
      slice_nodes_.push_back(n);
    }
    slice_[n] += hash_mix(label);
  };
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    const PecPrefix& pp = pec.prefixes[pi];
    for (const NodeId n : pp.ospf_origins) add(n, 0x10 + pi * 8);
    for (const NodeId n : pp.bgp_origins) add(n, 0x11 + pi * 8);
    if (pp.prefix.length() == 32) {
      for (NodeId n = 0; n < n_nodes_; ++n) {
        if (loopback_delivers(net_, pec, pi, n)) add(n, 0x12 + pi * 8);
      }
    }
    for (const auto& [dev, idx] : pp.static_routes) {
      const StaticRoute& sr = net_.device(dev).statics[idx];
      add(dev, hash_combine(0x13 + pi * 8, sr.drop ? 2u : 1u));
    }
  }
  for (const NodeId n : slice_nodes_) {
    touch(n, slice_[n]);
    slice_[n] = 0;
    in_slice_[n] = 0;
  }
  slice_nodes_.clear();
  split_touched(0);

  // The partition is stable over the topology only: every cell holding an
  // overlay endpoint still owes its overlay arcs, in position order.
  if (!overlay_.empty()) {
    for (NodeId n = 0; n < n_nodes_; ++n) {
      if (ov_offset_[n + 1] > ov_offset_[n]) touched_cells_.push_back(place_[n].cell);
    }
    std::sort(touched_cells_.begin(), touched_cells_.end());
    for (const std::uint32_t s : touched_cells_) push_splitter(s, kOverlayArcs);
    touched_cells_.clear();
  }
  refine();

  // Prefix *values* are deliberately absent: only lengths and the
  // footprints already folded into the labels matter to the exploration.
  std::uint64_t fp = hash_combine(trace_, pec.prefixes.size());
  for (const PecPrefix& pp : pec.prefixes) {
    fp = hash_combine(fp, pp.prefix.length());
  }
  return fp;
}

void Classer::record_path(IrPath& out) {
  out.levels.clear();
  for (std::uint32_t s = next_target(0); s < n_nodes_; s = next_target(s)) {
    individualize(elems_[s]);
    refine();
    out.levels.push_back(IrPath::Level{s, trace_});
  }
  out.leaf = elems_;
}

Match Classer::match(const IrPath& path, const Pec& rep, const Pec& pec) {
  const std::size_t depth = path.levels.size();
  const std::size_t budget = depth + kSearchSlack;
  const std::size_t root = trail_.size();
  std::size_t steps = 0;
  std::uint32_t cursor = 0;
  frames_.clear();
  candidates_.clear();
  for (;;) {
    // The partition matches the representative's at level frames_.size().
    const std::size_t level = frames_.size();
    const std::uint32_t s = next_target(cursor);
    if (level == depth) {
      if (s == n_nodes_) {
        for (std::uint32_t i = 0; i < n_nodes_; ++i) pi_[path.leaf[i]] = elems_[i];
        if (validate(rep, pec, pi_)) {
          gens_.insert(gens_.end(), pi_.begin(), pi_.end());
          return Match::kFound;
        }
      }
    } else if (s == path.levels[level].start) {
      const std::size_t begin = candidates_.size();
      candidates_.insert(candidates_.end(), elems_.begin() + s,
                         elems_.begin() + cells_[s].end);
      frames_.push_back(Frame{s, trail_.size(), begin, begin, candidates_.size()});
    }
    // Descend through the next candidate whose trace replays the path,
    // backtracking over exhausted levels.
    for (;;) {
      if (frames_.empty()) return Match::kNone;
      Frame& f = frames_.back();
      undo_to(f.mark);
      if (f.next == f.end) {
        candidates_.resize(f.begin);
        frames_.pop_back();
        continue;
      }
      if (++steps > budget) {
        undo_to(root);
        return Match::kBudget;
      }
      individualize(candidates_[f.next++]);
      refine();
      if (trace_ == path.levels[frames_.size() - 1].trace) {
        cursor = f.start;
        break;
      }
    }
  }
}

Orbit Classer::anchor() const {
  // Level-0 cells subdivide the base cells, so a singleton inside a
  // multi-node base cell was made by the slice. Base singletons are fixed by
  // every generator: their orbit is trivial.
  Orbit o;
  for (const std::uint32_t base : base_multi_) {
    for (std::uint32_t s = base; s < base_cells_[base].end; s = cells_[s].end) {
      if (cells_[s].end != s + 1) continue;
      o.pos = s;
      o.anchor = elems_[s];
      return o;
    }
  }
  return o;
}

/// Extends the Schreier vector incrementally: points already in the orbit
/// are closed under the first `seen` generators, so they take only the new
/// ones; points the new ones reach take every generator.
void Classer::extend(Orbit& orbit) {
  const auto count = static_cast<std::uint32_t>(gens_.size() / n_nodes_);
  if (orbit.seen == count) return;
  if (orbit.slot == Orbit::kNone) {
    orbit.slot = static_cast<std::uint32_t>(schreier_.size() / n_nodes_);
    schreier_.resize(schreier_.size() + n_nodes_);
    schreier_[std::size_t{orbit.slot} * n_nodes_ + orbit.anchor] =
        Link{orbit.anchor, Link::kRoot};
  }
  Link* links = schreier_.data() + std::size_t{orbit.slot} * n_nodes_;
  orbit_queue_.clear();
  for (NodeId x = 0; x < n_nodes_; ++x) {
    if (links[x].gen != Link::kOut) orbit_queue_.push_back(x);
  }
  const std::size_t closed = orbit_queue_.size();
  for (std::size_t i = 0; i < orbit_queue_.size(); ++i) {
    const NodeId x = orbit_queue_[i];
    for (std::uint32_t g = i < closed ? orbit.seen : 0; g < count; ++g) {
      const NodeId y = gens_[std::size_t{g} * n_nodes_ + x];
      if (links[y].gen != Link::kOut) continue;
      links[y] = Link{x, g};
      orbit_queue_.push_back(y);
    }
  }
  orbit.seen = count;
}

bool Classer::orbit_match(Orbit& orbit, const Pec& rep, const Pec& pec) {
  if (orbit.pos == Orbit::kNone) return false;
  const NodeId target = elems_[orbit.pos];
  if (place_[target].cell != orbit.pos || cells_[orbit.pos].end != orbit.pos + 1) {
    return false;  // no singleton there: a fingerprint collision
  }
  const auto link = [&](NodeId x) {
    return orbit.slot == Orbit::kNone
               ? Link{}
               : schreier_[std::size_t{orbit.slot} * n_nodes_ + x];
  };
  if (target != orbit.anchor && link(target).gen == Link::kOut) {
    extend(orbit);
    if (link(target).gen == Link::kOut) return false;
  }
  // sigma = g_k o ... o g_1 for the generators g_1 .. g_k on the Schreier
  // path from the anchor to the target.
  path_gens_.clear();
  for (NodeId x = target; x != orbit.anchor; x = link(x).from) {
    path_gens_.push_back(link(x).gen);
  }
  if (path_gens_.empty()) {
    std::iota(sigma_.begin(), sigma_.end(), NodeId{0});
  } else {
    const NodeId* first = gens_.data() + std::size_t{path_gens_.back()} * n_nodes_;
    std::copy(first, first + n_nodes_, sigma_.begin());
    for (std::size_t j = path_gens_.size() - 1; j-- > 0;) {
      const NodeId* g = gens_.data() + std::size_t{path_gens_[j]} * n_nodes_;
      for (NodeId& v : sigma_) v = g[v];
    }
  }
  // Closure: a product of topology automorphisms is one.
  assert(same_topology(sigma_));
  return same_config(rep, pec, sigma_);
}

// ---------------------------------------------------------------------------
// Validation: prove the leaf bijection is a configuration isomorphism.
// Traces and twin flags are hashes — a collision dies here: the search
// backtracks, and a member no leaf validates for keeps its own class
// instead of producing an unsound verdict transfer.
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

/// Configuration equivalence under pi, a topology automorphism: policy fixed
/// points, prefix structure, device roles and sessions, and the slices.
bool Classer::same_config(const Pec& a, const Pec& b, std::span<const NodeId> pi) {
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
    IrPath path;
    Orbit orbit;
  };
  std::optional<Classer> classer;  // built for the first eligible PEC
  std::unordered_map<std::uint64_t, std::vector<Class>> buckets;

  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    if (needed[p] == 0) continue;
    out.rep_of[p] = p;
    if (!eligible(p)) {
      if (is_target[p] != 0) ++out.stats.classes;  // ineligible target: singleton
      continue;
    }
    if (!classer) classer.emplace(net, policy);
    auto& bucket = buckets[classer->load(pecs.pecs[p])];
    bool joined = false;
    for (Class& cls : bucket) {
      const Pec& rep = pecs.pecs[cls.rep];
      if (classer->orbit_match(cls.orbit, rep, pecs.pecs[p])) {
        ++out.stats.orbit_hits;
      } else {
        const Match m = classer->match(cls.path, rep, pecs.pecs[p]);
        if (m == Match::kBudget) ++out.stats.search_fallbacks;
        if (m != Match::kFound) continue;
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
      cls.orbit = classer->anchor();
      classer->record_path(cls.path);
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
