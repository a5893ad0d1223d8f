#include "protocols/spvp.hpp"

#include <algorithm>

#include "netbase/hash.hpp"

namespace plankton::spvp {
namespace {

/// A message is an advertisement or a withdrawal (nullopt).
using Message = std::optional<BgpAdvert>;

struct Session {
  NodeId from;
  NodeId to;
};

struct State {
  /// rib_in[node index][peer index] — last advertisement received.
  std::vector<std::vector<Message>> rib_in;
  std::vector<Message> best;                 ///< per node index
  std::vector<std::deque<Message>> buffers;  ///< per directed session

  friend bool operator==(const State&, const State&) = default;
};

std::uint64_t hash_advert(const BgpAdvert& a) {
  std::uint64_t h = hash_span<NodeId>(a.path);
  h = hash_combine(h, a.local_pref);
  h = hash_combine(h, a.as_path_len);
  h = hash_combine(h, a.communities);
  h = hash_combine(h, (std::uint64_t{a.learned_ibgp} << 32) ^ a.metric);
  return h;
}

std::uint64_t hash_message(const Message& m) {
  return m.has_value() ? hash_advert(*m) : 0x77;
}

std::uint64_t hash_state(const State& s) {
  std::uint64_t h = 0x5127;
  for (const auto& row : s.rib_in) {
    for (const auto& m : row) h = hash_combine(h, hash_message(m));
  }
  for (const auto& m : s.best) h = hash_combine(h, hash_message(m));
  for (const auto& buf : s.buffers) {
    h = hash_combine(h, 0xb0f);
    for (const auto& m : buf) h = hash_combine(h, hash_message(m));
  }
  return h;
}

class SpvpExplorer {
 public:
  SpvpExplorer(const Network& net, const Prefix& prefix,
               std::span<const NodeId> origins, std::uint64_t max_states,
               const UpstreamResolver* upstream)
      : net_(net), prefix_(prefix), max_states_(max_states), upstream_(upstream) {
    for (NodeId n = 0; n < net.devices.size(); ++n) {
      if (net.device(n).bgp.has_value()) {
        index_of_[n] = members_.size();
        members_.push_back(n);
      }
    }
    is_origin_.assign(members_.size(), 0);
    for (const NodeId o : origins) is_origin_[index_of_.at(o)] = 1;
    for (const NodeId n : members_) {
      for (const auto& s : net.device(n).bgp->sessions) {
        sessions_.push_back(Session{n, s.peer});
      }
    }
  }

  SpvpResult run() {
    State init;
    init.rib_in.assign(members_.size(), {});
    for (std::size_t i = 0; i < members_.size(); ++i) {
      init.rib_in[i].assign(peer_count(members_[i]), std::nullopt);
    }
    init.best.assign(members_.size(), std::nullopt);
    init.buffers.assign(sessions_.size(), {});
    // Origins hold ε and enqueue their initial advertisements (Appendix A).
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (is_origin_[i] == 0) continue;
      BgpAdvert origin;
      origin.egress = members_[i];
      init.best[i] = origin;
      enqueue_exports(init, members_[i], origin);
    }
    dfs(std::move(init));
    return std::move(result_);
  }

 private:
  [[nodiscard]] std::size_t peer_count(NodeId n) const {
    return net_.device(n).bgp->sessions.size();
  }
  [[nodiscard]] std::size_t peer_index(NodeId n, NodeId peer) const {
    const auto& sessions = net_.device(n).bgp->sessions;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i].peer == peer) return i;
    }
    return ~std::size_t{0};
  }

  /// Pushes export(best) to every peer of `n` (withdrawal when filtered).
  void enqueue_exports(State& s, NodeId n, const Message& best) {
    for (std::size_t si = 0; si < sessions_.size(); ++si) {
      if (sessions_[si].from != n) continue;
      const NodeId to = sessions_[si].to;
      Message out;
      if (best.has_value()) {
        out = bgp_transform(net_, prefix_, n, to, *best, upstream_);
      }
      s.buffers[si].push_back(std::move(out));
    }
  }

  /// Receiver processes one message: update rib-in, re-select best,
  /// propagate on change.
  void deliver(State& s, std::size_t session_idx) {
    const NodeId from = sessions_[session_idx].from;
    const NodeId to = sessions_[session_idx].to;
    Message msg = std::move(s.buffers[session_idx].front());
    s.buffers[session_idx].pop_front();
    const std::size_t ti = index_of_.at(to);
    s.rib_in[ti][peer_index(to, from)] = std::move(msg);
    if (is_origin_[ti] != 0) return;  // origins keep ε (best-path pinned)

    // Best selection over rib-in (the ranking function; ties broken by
    // keeping the current best if it is still among the top-ranked —
    // age-based tie-breaking).
    Message new_best;
    for (const auto& cand : s.rib_in[ti]) {
      if (!cand.has_value()) continue;
      if (!new_best.has_value() || bgp_rank(*cand) > bgp_rank(*new_best)) {
        new_best = cand;
      }
    }
    if (s.best[ti].has_value() && new_best.has_value() &&
        bgp_rank(*s.best[ti]) == bgp_rank(*new_best)) {
      // Current best has equal rank: keep it if still present in rib-in.
      for (const auto& cand : s.rib_in[ti]) {
        if (cand.has_value() && *cand == *s.best[ti]) {
          new_best = *s.best[ti];
          break;
        }
      }
    }
    if (s.best[ti] == new_best) return;
    s.best[ti] = new_best;
    enqueue_exports(s, to, s.best[ti]);
  }

  void record_converged(const State& s) {
    ConvergedState cs(net_.topo.node_count());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (s.best[i].has_value()) cs[members_[i]] = s.best[i]->path;
    }
    result_.converged.insert(std::move(cs));
  }

  /// Counts `s` as explored unless it was seen before or the state cap is
  /// spent; false when it is not to be expanded.
  bool enter(const State& s) {
    if (result_.state_limit_hit) return false;
    if (!visited_.insert({hash_state(s), 0}).second) return false;
    if (++result_.states_explored > max_states_) {
      result_.state_limit_hit = true;
      return false;
    }
    return true;
  }

  /// Depth-first over every delivery order, with an explicit stack: an
  /// execution can be far deeper than the call stack allows. Children are
  /// visited in session order, as a recursive walk would.
  void dfs(State init) {
    struct Frame {
      State s;
      std::size_t next = 0;  ///< the next session to deliver on
      bool any = false;      ///< some session had a message
    };
    std::vector<Frame> stack;
    if (enter(init)) stack.push_back(Frame{std::move(init)});
    while (!stack.empty()) {
      Frame& f = stack.back();
      std::size_t si = f.next;
      while (si < sessions_.size() && f.s.buffers[si].empty()) ++si;
      if (si == sessions_.size()) {
        if (!f.any) record_converged(f.s);
        stack.pop_back();
        continue;
      }
      f.next = si + 1;
      f.any = true;
      State next = f.s;
      deliver(next, si);
      // Divergent executions (e.g. DISAGREE oscillation) grow buffers
      // without bound; prune them. Theorem 1 guarantees every converged
      // state is reached by an execution in which each node adopts its
      // final path once, so small buffer bounds lose no converged states.
      bool overflow = false;
      for (const auto& buf : next.buffers) {
        if (buf.size() > kBufferCap) {
          overflow = true;
          break;
        }
      }
      if (overflow) {
        result_.maybe_divergent = true;
        continue;
      }
      if (enter(next)) stack.push_back(Frame{std::move(next)});
    }
  }

  static constexpr std::size_t kBufferCap = 3;

  const Network& net_;
  Prefix prefix_;
  std::uint64_t max_states_;
  const UpstreamResolver* upstream_;
  std::vector<NodeId> members_;
  std::map<NodeId, std::size_t> index_of_;
  std::vector<std::uint8_t> is_origin_;
  std::vector<Session> sessions_;
  std::set<std::pair<std::uint64_t, int>> visited_;
  SpvpResult result_;
};

}  // namespace

SpvpResult explore_spvp(const Network& net, const Prefix& prefix,
                        std::span<const NodeId> origins,
                        std::uint64_t max_states,
                        const UpstreamResolver* upstream) {
  return SpvpExplorer(net, prefix, origins, max_states, upstream).run();
}

}  // namespace plankton::spvp
