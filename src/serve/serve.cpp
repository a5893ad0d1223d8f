#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "eqclass/pec_dedup.hpp"
#include "netbase/hash.hpp"
#include "sched/wire.hpp"

namespace plankton::serve {

// ---------------------------------------------------------------------------
// Codecs: each walks its payload's field list (serve/serve.hpp).
// ---------------------------------------------------------------------------

std::string encode_load_net(const LoadNetMsg& m) { return wire::encode(m); }
bool decode_load_net(std::string_view in, LoadNetMsg& out) {
  return wire::decode(in, out);
}
std::string encode_apply_delta(const ApplyDeltaMsg& m) {
  return wire::encode(m);
}
bool decode_apply_delta(std::string_view in, ApplyDeltaMsg& out) {
  return wire::decode(in, out);
}
std::string encode_query(const QueryMsg& m) { return wire::encode(m); }
bool decode_query(std::string_view in, QueryMsg& out) {
  return wire::decode(in, out);
}
std::string encode_verdict_reply(const VerdictReplyMsg& m) {
  return wire::encode(m);
}
bool decode_verdict_reply(std::string_view in, VerdictReplyMsg& out) {
  return wire::decode(in, out);
}
std::string encode_cache_stats(const CacheStatsMsg& m) {
  return wire::encode(m);
}
bool decode_cache_stats(std::string_view in, CacheStatsMsg& out) {
  return wire::decode(in, out);
}

// ---------------------------------------------------------------------------
// Config rendering
// ---------------------------------------------------------------------------

std::unordered_map<std::uint8_t, std::string> community_names_of(
    const std::map<std::string, std::uint8_t>& communities) {
  std::unordered_map<std::uint8_t, std::string> out;
  for (const auto& [name, bit] : communities) out.emplace(bit, name);
  return out;
}

namespace {

std::string community_name(
    const std::unordered_map<std::uint8_t, std::string>& names,
    std::uint8_t bit) {
  const auto it = names.find(bit);
  return it != names.end() ? it->second : "C" + std::to_string(bit);
}

void render_route_map(std::string& out, const Network& net, NodeId self,
                      NodeId peer, const char* dir, const RouteMap& rm,
                      const std::unordered_map<std::uint8_t, std::string>& cn) {
  const std::string head = "route-map " + net.topo.name(self) + " " +
                           net.topo.name(peer) + " " + dir + " ";
  for (const RouteMapClause& c : rm.clauses) {
    std::string line = head + (c.action.permit ? "permit" : "deny");
    if (c.match.prefix) {
      line += " match-prefix " + c.match.prefix->str();
      if (c.match.prefix_mode == RouteMapMatch::PrefixMode::kOrLonger) {
        line += " or-longer";
      }
    }
    if (c.match.community) {
      line += " match-community " + community_name(cn, *c.match.community);
    }
    if (c.match.max_path_len) {
      line += " match-max-path-len " + std::to_string(*c.match.max_path_len);
    }
    if (c.action.set_local_pref) {
      line += " set-local-pref " + std::to_string(*c.action.set_local_pref);
    }
    if (c.action.add_community) {
      line += " add-community " + community_name(cn, *c.action.add_community);
    }
    if (c.action.prepend != 0) {
      line += " prepend " + std::to_string(c.action.prepend);
    }
    out += line + "\n";
  }
  if (!rm.default_permit) out += head + "deny\n";  // route-map-default below
}

}  // namespace

std::string render_config(
    const Network& net,
    const std::unordered_map<std::uint8_t, std::string>& community_names) {
  std::string out;
  const std::size_t n_nodes = net.topo.node_count();
  for (NodeId n = 0; n < n_nodes; ++n) {
    const DeviceConfig& dev = net.device(n);
    out += "node " + dev.name;
    if (dev.loopback.value() != 0) out += " loopback " + dev.loopback.str();
    out += "\n";
  }
  for (const Link& l : net.topo.links()) {
    out += "link " + net.topo.name(l.a) + " " + net.topo.name(l.b) + " cost " +
           std::to_string(l.cost_ab) + " cost-ba " + std::to_string(l.cost_ba) +
           "\n";
  }
  for (NodeId n = 0; n < n_nodes; ++n) {
    const DeviceConfig& dev = net.device(n);
    const std::string name = net.topo.name(n);
    if (dev.ospf.enabled) out += "ospf " + name + " enable\n";
    if (!dev.ospf.advertise_loopback) out += "ospf " + name + " no-loopback\n";
    if (dev.ospf.redistribute_static) {
      out += "ospf " + name + " redistribute-static\n";
    }
    for (const Prefix& p : dev.ospf.originated) {
      out += "ospf " + name + " originate " + p.str() + "\n";
    }
    for (const StaticRoute& sr : dev.statics) {
      out += "static " + name + " " + sr.dst.str();
      if (sr.drop) {
        out += " drop";
      } else if (sr.via_ip) {
        out += " via-ip " + sr.via_ip->str();
      } else {
        out += " via " + net.topo.name(sr.via_neighbor);
      }
      out += "\n";
    }
  }
  for (NodeId n = 0; n < n_nodes; ++n) {
    const DeviceConfig& dev = net.device(n);
    if (!dev.bgp) continue;
    const std::string name = net.topo.name(n);
    if (dev.bgp->asn != 0) {
      out += "bgp " + name + " asn " + std::to_string(dev.bgp->asn) + "\n";
    }
    if (dev.bgp->redistribute_ospf) out += "bgp " + name + " redistribute-ospf\n";
    for (const Prefix& p : dev.bgp->originated) {
      out += "bgp " + name + " originate " + p.str() + "\n";
    }
  }
  // Sessions once per pair (the parser materializes both directions), then
  // route maps — map_for() requires the session lines to precede them.
  for (NodeId n = 0; n < n_nodes; ++n) {
    const DeviceConfig& dev = net.device(n);
    if (!dev.bgp) continue;
    for (const BgpSession& s : dev.bgp->sessions) {
      if (s.peer < n) continue;
      out += "bgp-session " + net.topo.name(n) + " " + net.topo.name(s.peer) +
             (s.ibgp ? " ibgp" : " ebgp") + "\n";
    }
  }
  for (NodeId n = 0; n < n_nodes; ++n) {
    const DeviceConfig& dev = net.device(n);
    if (!dev.bgp) continue;
    for (const BgpSession& s : dev.bgp->sessions) {
      render_route_map(out, net, n, s.peer, "import", s.import, community_names);
      render_route_map(out, net, n, s.peer, "export", s.export_, community_names);
      if (!s.import.default_permit) {
        out += "route-map-default " + net.topo.name(n) + " " +
               net.topo.name(s.peer) + " import deny\n";
      }
      if (!s.export_.default_permit) {
        out += "route-map-default " + net.topo.name(n) + " " +
               net.topo.name(s.peer) + " export deny\n";
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ServeState
// ---------------------------------------------------------------------------

namespace {

std::uint64_t hash_str(std::uint64_t h, std::string_view s) {
  h = hash_combine(h, s.size());
  for (const char c : s) h = hash_combine(h, static_cast<unsigned char>(c));
  return h;
}

/// Format-version salt for cache ctx hashes: bump when the meaning of a
/// cached verdict or the key formula changes (policy semantics, explorer
/// fixes, ...), so that keys an older binary wrote never hit. v2: the PEC
/// part of ctx is the identity hash recompute_cones() keeps per PEC.
constexpr std::uint64_t kCtxSalt = 0x53455256'00000002ull;  // "SERV" v2

}  // namespace

ServeState::ServeState(VerifyOptions opts) : opts_(std::move(opts)) {}

bool ServeState::make_resident(std::string config_text, std::string& error) {
  ParsedNetwork parsed;
  if (!parse_network_config(config_text, parsed, error)) return false;
  const auto problems = parsed.net.validate();
  if (!problems.empty()) {
    error = "invalid network: " + problems.front();
    return false;
  }
  // Commit point: nothing above mutated the resident state. The Verifier
  // holds a reference to the network, so the old one must be torn down
  // before parsed_ is replaced, and the new one built only afterwards.
  verifier_.reset();
  parsed_ = std::move(parsed);
  verifier_ = std::make_unique<Verifier>(parsed_.net, opts_);
  config_text_ = std::move(config_text);
  recompute_cones();
  return true;
}

void ServeState::recompute_cones() {
  const PecSet& pecs = verifier_->pecs();
  const PecDependencies& deps = verifier_->deps();
  const std::vector<std::uint64_t> residues =
      compute_pec_fingerprints(parsed_.net, pecs);
  cones_.assign(pecs.pecs.size(), 0);
  ids_.assign(pecs.pecs.size(), 0);
  std::vector<std::uint8_t> seen(pecs.pecs.size(), 0);
  std::vector<PecId> frontier;
  std::vector<std::uint64_t> cone_residues;
  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    // BFS over depends_on: everything this PEC's verification can observe.
    cone_residues.clear();
    frontier.assign(1, p);
    std::fill(seen.begin(), seen.end(), 0);
    seen[p] = 1;
    while (!frontier.empty()) {
      const PecId q = frontier.back();
      frontier.pop_back();
      cone_residues.push_back(residues[q]);
      for (const PecId d : deps.depends_on[q]) {
        if (seen[d] == 0) {
          seen[d] = 1;
          frontier.push_back(d);
        }
      }
    }
    // Sort minus the self entry's position: the fold must not depend on BFS
    // order, only on the multiset of residues in the cone.
    std::sort(cone_residues.begin(), cone_residues.end());
    std::uint64_t h = hash_combine(0xC04E, residues[p]);
    for (const std::uint64_t r : cone_residues) h = hash_combine(h, r);
    h = hash_combine(h, deps.self_loop[p] != 0 ? 2u : 1u);
    cones_[p] = h;
    ids_[p] = hash_str(0, pecs.pecs[p].str());
  }
}

bool ServeState::load(const std::string& config_text, std::string& error) {
  if (!make_resident(config_text, error)) return false;
  last_moved_ = 0;
  // A full load obsoletes the journal history: compact to the new snapshot
  // (fsync'd inside rewrite — the caller's ack stays behind the durability
  // point). A journal failure fails the request so no ack can ever claim
  // durability the disk doesn't have.
  return replaying_ || compact_journal(error);
}

bool ServeState::apply_delta(const ApplyDeltaMsg& delta, std::string& error) {
  if (!loaded()) {
    error = "no network loaded";
    return false;
  }
  // Line-level editing of the resident config text.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= config_text_.size()) {
    const std::size_t eol = config_text_.find('\n', pos);
    if (eol == std::string::npos) {
      if (pos < config_text_.size()) lines.push_back(config_text_.substr(pos));
      break;
    }
    lines.push_back(config_text_.substr(pos, eol - pos));
    pos = eol + 1;
  }
  for (const DeltaOp& op : delta.ops) {
    if (op.add) {
      lines.push_back(op.line);
      continue;
    }
    const auto it = std::find(lines.begin(), lines.end(), op.line);
    if (it == lines.end()) {
      error = "delta removes absent line '" + op.line + "'";
      return false;
    }
    lines.erase(it);
  }
  std::string next_text;
  for (const std::string& l : lines) {
    next_text += l;
    next_text += '\n';
  }

  // Snapshot the old cone map before the rebuild, then count moved PECs by
  // identity hash — a PEC whose cone hash changed, appeared, or vanished.
  std::unordered_map<std::uint64_t, std::uint64_t> before;
  before.reserve(ids_.size());
  for (PecId p = 0; p < ids_.size(); ++p) before.emplace(ids_[p], cones_[p]);
  if (!make_resident(std::move(next_text), error)) return false;
  std::uint64_t moved = 0;
  std::size_t matched = 0;
  for (PecId p = 0; p < ids_.size(); ++p) {
    const auto it = before.find(ids_[p]);
    if (it == before.end()) {
      ++moved;  // new PEC
    } else {
      ++matched;
      if (it->second != cones_[p]) ++moved;
    }
  }
  moved += before.size() - matched;  // vanished PECs
  last_moved_ = moved;
  if (journal_.is_open() && !replaying_ &&
      !journal_.append(JournalRecord::kApplyDelta, encode_apply_delta(delta),
                       error)) {
    return false;
  }
  return true;
}

VerdictReplyMsg ServeState::query(const QueryMsg& q) {
  VerdictReplyMsg reply;
  reply.moved = last_moved_;
  const auto start = std::chrono::steady_clock::now();
  const auto finish = [&reply, start] {
    reply.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  };
  if (!loaded()) {
    reply.error = "no network loaded";
    reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
    finish();
    return reply;
  }
  // ExploreOptions::max_failures is an int: a larger k would wrap negative
  // and fail no link at all, so refuse it before any cache lookup or insert.
  if (q.max_failures > static_cast<std::uint32_t>(INT32_MAX)) {
    reply.error = "max_failures " + std::to_string(q.max_failures) +
                  " exceeds the bound " + std::to_string(INT32_MAX);
    reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
    finish();
    return reply;
  }
  std::string error;
  const std::unique_ptr<Policy> policy =
      make_policy(parsed_.net, q.policy_spec, error);
  if (policy == nullptr) {
    reply.error = error;
    reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
    finish();
    return reply;
  }

  // ctx: everything about the *question* that can change a verdict. POR /
  // dedup / engine / core count are excluded on purpose — each is pinned
  // verdict-invariant by its own differential suite, and excluding them lets
  // a dedup-off differential arm hit the same entries.
  const std::uint64_t ctx_base =
      hash_combine(hash_str(kCtxSalt, q.policy_spec), q.max_failures);

  const std::vector<PecId> targets = verifier_->pecs().routed();
  reply.targets = targets.size();
  std::vector<PecId> misses;
  for (const PecId p : targets) {
    if (cache_.lookup({cones_[p], hash_combine(ctx_base, ids_[p])})) {
      ++reply.cache_hits;
    } else {
      misses.push_back(p);
    }
  }
  reply.reverified = misses.size();
  reply.ok = true;
  if (misses.empty()) {
    reply.verdict = static_cast<std::uint8_t>(Verdict::kHolds);
    finish();
    return reply;
  }

  const VerifyResult result = verifier_->verify_pecs(
      std::move(misses), *policy, static_cast<int>(q.max_failures));
  for (const PecReport& rep : result.reports) {
    for (const Violation& viol : rep.result.violations) {
      if (!viol.message.empty() || !viol.trail_text.empty()) {
        if (reply.violations.size() < 64) {
          reply.violations.push_back(
              ViolationText{rep.pec_str, viol.message});
        }
      }
    }
    cache_.insert({cones_[rep.pec], hash_combine(ctx_base, ids_[rep.pec])},
                  rep.result.verdict());
  }
  reply.verdict = static_cast<std::uint8_t>(result.verdict);
  finish();
  return reply;
}

CacheStatsMsg ServeState::cache_stats() const { return cache_.counters(); }

bool ServeState::attach_journal(const std::string& path, std::string& error) {
  return journal_.open(path, error);
}

bool ServeState::replay_journal(Journal::ReplayResult& stats,
                                std::string& error) {
  if (!journal_.is_open()) {
    error = "no journal attached";
    return false;
  }
  replaying_ = true;
  std::string apply_error;
  const bool ok = Journal::replay(
      journal_.path(),
      [this, &apply_error](JournalRecord type, std::string_view payload) {
        switch (type) {
          case JournalRecord::kLoadNet:
            return load(std::string(payload), apply_error);
          case JournalRecord::kApplyDelta: {
            ApplyDeltaMsg delta;
            if (!decode_apply_delta(payload, delta)) {
              apply_error = "undecodable kApplyDelta record";
              return false;
            }
            return apply_delta(delta, apply_error);
          }
          case JournalRecord::kCleanHolds: {
            std::vector<CacheKey> keys;
            if (!wire::decode(payload, keys)) {
              apply_error = "undecodable kCleanHolds record";
              return false;
            }
            cache_.restore(keys);
            return true;
          }
        }
        return false;
      },
      stats, error);
  replaying_ = false;
  if (!ok && !apply_error.empty()) error += " (" + apply_error + ")";
  // Chop the torn tail off now: leaving it would put the next accepted
  // append *behind* unparseable bytes, where no future replay can reach it.
  if (ok && stats.torn_tail &&
      !journal_.truncate_tail(stats.dropped_bytes, error)) {
    return false;
  }
  return ok;
}

bool ServeState::compact_journal(std::string& error) {
  if (!journal_.is_open() || !loaded()) return true;
  // Only keys of the resident config can hit after a replay: a key whose
  // cone no PEC has now belongs to a config a delta has since replaced. The
  // in-memory cache keeps them, since a delta that reverts can hit them.
  const std::unordered_set<std::uint64_t> resident(cones_.begin(),
                                                   cones_.end());
  std::vector<CacheKey> keys = cache_.keys();
  std::erase_if(keys,
                [&](const CacheKey& k) { return !resident.contains(k.cone); });
  return journal_.rewrite(config_text_, wire::encode(keys), error);
}

}  // namespace plankton::serve
