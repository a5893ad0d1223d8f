#include <algorithm>
#include <string_view>

#include "bench.hpp"
#include "netbase/hash.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"

namespace plankton::bench_e2e {

namespace {

/// splitmix64: a seeded stream that is identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return hash_mix(state_);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    lines.emplace_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Workload seeds are salted per stream so the declaration shuffle and the
/// other seeded choices of one workload do not share a sequence.
Rng seeded(std::uint64_t seed, std::uint64_t salt) {
  return Rng(hash_combine(seed, salt));
}

std::unique_ptr<Policy> loop_policy(const Network& /*net*/) {
  return std::make_unique<LoopFreedomPolicy>();
}

std::vector<NodeId> nodes_named(const Network& net, std::string_view prefix) {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < net.topo.node_count(); ++n) {
    if (net.topo.name(n).starts_with(prefix)) out.push_back(n);
  }
  return out;
}

/// Renders `net` with its `node` declaration lines permuted. The parser
/// numbers devices in declaration order, so the permutation renumbers every
/// device (and with it the explorer's iteration order) while the network
/// stays the same.
std::string shuffled_config(const Network& net, Rng& rng) {
  std::vector<std::string> lines = split_lines(serve::render_config(net));
  // render_config declares every node first, one line each.
  const std::size_t nodes = net.topo.node_count();
  for (std::size_t i = nodes; i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.below(i)]);
  }
  return join_lines(lines);
}

}  // namespace

std::string serve_config(std::uint64_t seed) {
  FatTreeOptions o;
  o.k = 10;
  FatTree ft = make_fat_tree(o);
  // Perturbed costs, as in bench/fig_serve_deltas.cpp: on a symmetric
  // fabric dedup would fold the 50 PECs into one class and a cold query
  // would explore one PEC instead of 50.
  for (LinkId l = 0; l < ft.net.topo.link_count(); ++l) {
    const std::uint32_t c = 10 + (l * 7) % 11;
    ft.net.topo.set_link_cost(l, c, c);
  }
  Rng shuffle = seeded(seed, 1);
  return shuffled_config(ft.net, shuffle);
}

VerifySpec serve_verify_spec(std::string config) {
  VerifySpec spec;
  spec.config = std::move(config);
  spec.opts.cores = 1;
  spec.make_policy = loop_policy;
  return spec;
}

VerifySpec make_verify_spec(const std::string& name, std::uint64_t seed) {
  Rng shuffle = seeded(seed, 1);
  Rng pick = seeded(seed, 2);
  VerifySpec out;
  out.opts.cores = 1;
  if (name == "verify_spvp") {
    // Fig. 9's worst case: BGP fat tree K=4, deterministic-node detection
    // and converged-state suppression off, so SPVP interleavings, POR and
    // the visited store do the work. The source edge-3-1 must cross an
    // aggregation switch to reach another pod's prefix, so the waypoint
    // policy holds. Declarations stay in generator order: DPOR's state
    // count depends on device numbering (7 to 953k states across
    // shuffles), so the seed only picks among the four pod-0/1 prefixes,
    // which explore the same 179,342 states.
    FatTreeOptions o;
    o.k = 4;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    out.config = serve::render_config(ft.net);
    out.opts.explore.det_nodes_bgp = false;
    out.opts.explore.suppress_equivalent = false;
    out.make_policy = [](const Network& net) -> std::unique_ptr<Policy> {
      return std::make_unique<WaypointPolicy>(
          std::vector<NodeId>{*net.find_device("edge-3-1")},
          nodes_named(net, "agg-"));
    };
    out.single_pec = true;
    out.target = ft.edge_prefixes[pick.below(4)].addr();
  } else if (name == "verify_fattree") {
    // Fig. 7b: OSPF fat tree K=20 (500 devices, 200 PECs), loop freedom on
    // every PEC; dedup folds the 200 PECs into 20 classes, so PEC classing
    // and parsing take about half the time.
    FatTreeOptions o;
    o.k = 20;
    out.config = shuffled_config(make_fat_tree(o).net, shuffle);
    out.make_policy = loop_policy;
  } else if (name == "verify_failures") {
    // Fig. 7d: AS1755 under at most one link failure, loop freedom on all
    // 87 PECs. It holds, so every PEC x failure set is explored whatever
    // the PEC order; all dedup classes are singletons.
    out.config = shuffled_config(make_as_topo("AS1755").net, shuffle);
    out.opts.explore.max_failures = 1;
    out.make_policy = loop_policy;
  }
  return out;
}

// ---------------------------------------------------------------------------
// DeltaStream
// ---------------------------------------------------------------------------

DeltaStream::DeltaStream(const Network& net, std::uint64_t seed) {
  const PecSet pecs = compute_pecs(net);
  for (const PecId p : pecs.routed()) {
    // The PEC's most specific originated prefix.
    for (const PecPrefix& pp : pecs.pecs[p].prefixes) {
      const std::vector<NodeId>& origins =
          !pp.ospf_origins.empty() ? pp.ospf_origins : pp.bgp_origins;
      if (origins.empty()) continue;
      Target t{pp.prefix, net.topo.name(origins.front()), {}};
      for (const Adjacency& adj : net.topo.neighbors(origins.front())) {
        t.movers.push_back(net.topo.name(adj.neighbor));
      }
      if (!t.movers.empty()) targets_.push_back(std::move(t));
      break;
    }
  }
  Rng rng = seeded(seed, 3);
  for (std::size_t i = targets_.size(); i > 1; --i) {
    std::swap(targets_[i - 1], targets_[rng.below(i)]);
  }
  // The loop goes on the first target whose origin O has a neighbour A
  // with a second neighbour B != O: statics A -> B and B -> A for the
  // prefix loop every packet that reaches A or B.
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const NodeId o = *net.find_device(targets_[i].origin);
    for (const Adjacency& a : net.topo.neighbors(o)) {
      for (const Adjacency& b : net.topo.neighbors(a.neighbor)) {
        if (b.neighbor == o) continue;
        loop_a_ = net.topo.name(a.neighbor);
        loop_b_ = net.topo.name(b.neighbor);
        std::swap(targets_[0], targets_[i]);
        return;
      }
    }
  }
  targets_.clear();  // no loop can be built: ok() is false
}

DeltaStream::Step DeltaStream::loop_step(bool add) {
  Step s;
  const std::string p = targets_[0].prefix.str();
  s.delta.ops.push_back({add, "static " + loop_a_ + " " + p + " via " + loop_b_});
  s.delta.ops.push_back({add, "static " + loop_b_ + " " + p + " via " + loop_a_});
  s.expect = add ? Verdict::kViolated : Verdict::kHolds;
  loop_on_ = add;
  return s;
}

DeltaStream::Step DeltaStream::next() {
  const std::uint64_t i = step_++;
  if (loop_on_) return loop_step(false);
  if (i % 50 == 49) return loop_step(true);
  // The static moves off its old address (whose PECs merge back into
  // cached ones) onto the next host: a /32 inside a prefix splits it into
  // three address ranges no earlier step produced. A /31 or /32 prefix has
  // one "host", the prefix itself.
  const Target& t = targets_[target_];
  const std::uint8_t len = t.prefix.length();
  const std::uint64_t hosts = len <= 30 ? (std::uint64_t{1} << (32 - len)) - 2 : 1;
  const IpAddr addr(t.prefix.addr().value() +
                    static_cast<std::uint32_t>(hosts > 1 ? 1 + host_ : 0));
  const std::string& mover = t.movers[host_ % t.movers.size()];
  Step s;
  if (!moving_line_.empty()) s.delta.ops.push_back({false, moving_line_});
  moving_line_ = "static " + mover + " " + addr.str() + "/32 via " + t.origin;
  s.delta.ops.push_back({true, moving_line_});
  if (++host_ == hosts) {
    host_ = 0;
    target_ = (target_ + 1) % targets_.size();
  }
  return s;
}

DeltaStream::Step DeltaStream::close_with_loop() {
  if (loop_on_) {
    Step s;
    s.expect = Verdict::kViolated;
    return s;
  }
  ++step_;
  return loop_step(true);
}

bool apply_ops(std::string& config, const serve::ApplyDeltaMsg& delta) {
  std::vector<std::string> lines = split_lines(config);
  for (const serve::DeltaOp& op : delta.ops) {
    if (op.add) {
      lines.push_back(op.line);
      continue;
    }
    const auto it = std::find(lines.begin(), lines.end(), op.line);
    if (it == lines.end()) return false;
    lines.erase(it);
  }
  config = join_lines(lines);
  return true;
}

}  // namespace plankton::bench_e2e
