// Randomized serve differential: the verdict cache against a fresh Verifier.
//
// Each random_net instance (tests/support/random_net.hpp) is rendered with
// render_config, made resident in a ServeState, and driven through a seeded
// stream of line-level deltas that edits every input of a PEC's residue:
// link costs, statics (drop, via neighbour, via IP) added and removed, OSPF
// and BGP originations, route-map clauses with and without a prefix match,
// route-map defaults, redistribute flags, and loopbacks. Most edits are
// reverted by the next delta, so the config stays near a base whose clean
// holds are cached. After every delta, the served verdict and the set of
// violating PECs must equal a fresh Verifier run on the same config text,
// for the instance's policy, loop freedom, and a tight path-length bound.
// A residue that misses an input the explorer reads would let a delta
// editing only that input hit the pre-delta cache entry, and the served
// verdict would go stale. Dropping link costs, route-map clauses or
// route-map defaults from the residue fails this test at its default size;
// dropping loopbacks fails it at PLANKTON_DIFF_SEEDS=3000.
//
// The instance count scales with PLANKTON_DIFF_SEEDS (a tenth of it, at
// least the default 60), like the other differential harnesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "serve/serve.hpp"
#include "support/random_net.hpp"

namespace plankton::serve {
namespace {

using testsupport::RandomInstance;
using testsupport::make_random_instance;
using Rng = std::mt19937_64;

constexpr int kEditsPerInstance = 32;
constexpr std::size_t kMaxReplyViolations = 64;  ///< ServeState::query's cap

int instance_count() {
  int count = 60;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    count = std::max(count, std::atoi(v) / 10);
  }
  return count;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) out.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return out;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    out.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[rng() % v.size()];
}

/// Prefixes the stream points config at: the corpus's 10.0.0.0/16, its
/// halves and quarters, host routes inside it and on the mixed family's
/// loopbacks, a covering /8, a default route, and a disjoint /16.
const std::vector<std::string> kPrefixes = {
    "10.0.0.0/16", "10.0.0.0/17",   "10.0.128.0/17", "10.0.64.0/18",
    "10.0.7.0/24", "10.0.0.77/32",  "10.255.1.1/32", "10.0.0.0/8",
    "0.0.0.0/0",   "10.1.0.0/16"};

/// Next-hop and loopback addresses: mixed-family loopbacks, hosts inside
/// 10.0.0.0/16, and an address nothing routes.
const std::vector<std::string> kAddrs = {"10.255.0.1", "10.255.1.1",
                                         "10.255.2.1", "10.0.0.77",
                                         "10.0.200.1", "192.0.2.1"};

/// The next delta of the stream, built against the resident network and
/// config text. Every op names lines exactly as they appear in the text.
ApplyDeltaMsg next_delta(Rng& rng, const Network& net,
                         const std::string& text) {
  const std::vector<std::string> lines = lines_of(text);
  const std::size_t n = net.topo.node_count();
  const auto name = [&net](NodeId v) { return net.device(v).name; };
  const NodeId dev = static_cast<NodeId>(rng() % n);

  std::vector<std::pair<NodeId, NodeId>> sessions;
  for (NodeId v = 0; v < n; ++v) {
    if (!net.device(v).bgp) continue;
    for (const BgpSession& s : net.device(v).bgp->sessions) {
      sessions.emplace_back(v, s.peer);
    }
  }

  ApplyDeltaMsg d;
  const auto add = [&d](std::string line) { d.ops.push_back({true, line}); };
  const auto del = [&d](std::string line) { d.ops.push_back({false, line}); };
  // A random line that starts with `head` and contains `needle`, or
  // lines.size() when there is none.
  const auto pick_line = [&](std::string_view head,
                             std::string_view needle = "") {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].starts_with(head) &&
          lines[i].find(needle) != std::string::npos) {
        at.push_back(i);
      }
    }
    return at.empty() ? lines.size() : pick(rng, at);
  };
  // Removes such a line; false when there is none.
  const auto remove_one = [&](std::string_view head,
                              std::string_view needle = "") {
    const std::size_t i = pick_line(head, needle);
    if (i == lines.size()) return false;
    del(lines[i]);
    return true;
  };
  // Replaces line i in place. An added line lands at the end of the config,
  // so the delta removes line i and every line after it and appends them
  // again, line i edited: the order of the config is kept, and with it every
  // device and link id. Only the edited value can move a residue.
  const auto replace_line = [&](std::size_t i, std::string edited) {
    for (std::size_t j = i; j < lines.size(); ++j) del(lines[j]);
    add(std::move(edited));
    for (std::size_t j = i + 1; j < lines.size(); ++j) add(lines[j]);
  };
  for (;;) {
    // Link costs get three shares: they reach verdicts only through path
    // choice, so fewer of their edits flip one.
    switch (rng() % 14) {
      case 0:
      case 12:
      case 13: {  // link cost, either direction
        const std::size_t i = pick_line("link ");
        if (i == lines.size()) break;
        const std::vector<std::string> t = tokens_of(lines[i]);
        const std::vector<std::uint32_t> costs = {1, 2, 3, 5, 8, 20};
        replace_line(i, "link " + t[1] + " " + t[2] + " cost " +
                            std::to_string(pick(rng, costs)) + " cost-ba " +
                            std::to_string(pick(rng, costs)));
        return d;
      }
      case 1: {  // static: drop, via a neighbour, or via an address
        std::string line = "static " + name(dev) + " " + pick(rng, kPrefixes);
        const auto adj = net.topo.neighbors(dev);
        const unsigned mode = static_cast<unsigned>(rng() % 3);
        if (mode == 0 || adj.empty()) {
          line += " drop";
        } else if (mode == 1) {
          line += " via " + name(adj[rng() % adj.size()].neighbor);
        } else {
          line += " via-ip " + pick(rng, kAddrs);
        }
        add(line);
        return d;
      }
      case 2:  // remove a static
        if (remove_one("static ")) return d;
        break;
      case 3:  // OSPF origination
        add("ospf " + name(dev) + " originate " + pick(rng, kPrefixes));
        return d;
      case 4:  // BGP origination (on a BGP speaker)
        if (!net.device(dev).bgp) break;
        add("bgp " + name(dev) + " originate " + pick(rng, kPrefixes));
        return d;
      case 5:  // remove an OSPF or BGP origination
        if (remove_one("", " originate ")) return d;
        break;
      case 6: {  // route-map clause, with or without a prefix match
        if (sessions.empty()) break;
        const auto [a, b] = pick(rng, sessions);
        std::string line = "route-map " + name(a) + " " + name(b) +
                           (rng() % 2 == 0 ? " import" : " export") +
                           (rng() % 3 == 0 ? " deny" : " permit");
        if (rng() % 2 == 0) {
          line += " match-prefix " + pick(rng, kPrefixes);
          if (rng() % 2 == 0) line += " or-longer";
        }
        switch (rng() % 3) {
          case 0: line += " set-local-pref " + std::to_string(50 + 50 * (rng() % 4)); break;
          case 1: line += " prepend " + std::to_string(1 + rng() % 3); break;
          default: line += " match-max-path-len " + std::to_string(1 + rng() % 4); break;
        }
        add(line);
        return d;
      }
      case 7:  // remove a route-map clause
        if (remove_one("route-map ")) return d;
        break;
      case 8: {  // route-map default: set one, or drop a rendered deny
        if (sessions.empty()) break;
        if (rng() % 2 == 0 && remove_one("route-map-default ")) return d;
        const auto [a, b] = pick(rng, sessions);
        add("route-map-default " + name(a) + " " + name(b) +
            (rng() % 2 == 0 ? " import" : " export") +
            (rng() % 3 == 0 ? " permit" : " deny"));
        return d;
      }
      case 9: {  // redistribute flags, on or off
        if (rng() % 3 == 0 && remove_one("", " redistribute-")) return d;
        // Prefer a device the flag does something on: a BGP speaker that
        // runs OSPF, or a device with statics to hand to OSPF.
        const bool to_bgp = rng() % 2 == 0;
        std::vector<NodeId> useful;
        for (NodeId v = 0; v < n; ++v) {
          const DeviceConfig& c = net.device(v);
          if (to_bgp ? c.bgp && c.ospf.enabled : !c.statics.empty()) {
            useful.push_back(v);
          }
        }
        const NodeId v = useful.empty() ? dev : pick(rng, useful);
        if (to_bgp && net.device(v).bgp) {
          add("bgp " + name(v) + " redistribute-ospf");
        } else {
          add("ospf " + name(v) + " redistribute-static");
        }
        return d;
      }
      case 10: {  // loopback: set, change, or clear
        const std::size_t i = pick_line("node ");
        const std::string node = "node " + tokens_of(lines[i])[1];
        const unsigned which = static_cast<unsigned>(rng() % (kAddrs.size() + 1));
        replace_line(i, which == kAddrs.size()
                            ? node
                            : node + " loopback " + kAddrs[which]);
        return d;
      }
      default: {  // two edits in one batch
        d = next_delta(rng, net, text);
        const ApplyDeltaMsg more = next_delta(rng, net, text);
        // Only small edits touching different lines compose: a replaced line
        // or a line both edits remove would fail the whole batch.
        bool clash = d.ops.size() > 2 || more.ops.size() > 2;
        for (const DeltaOp& op : more.ops) {
          for (const DeltaOp& prev : d.ops) clash = clash || op.line == prev.line;
        }
        if (!clash) d.ops.insert(d.ops.end(), more.ops.begin(), more.ops.end());
        return d;
      }
    }
  }
}

/// The oracle: a fresh parse and Verifier over the same config text.
struct Outcome {
  Verdict verdict = Verdict::kError;
  std::set<std::string> violating;
  std::uint64_t nonclean = 0;  ///< PECs whose verdict is not a hold
};

Outcome fresh_outcome(const std::string& text, const std::string& spec,
                      const VerifyOptions& opts) {
  ParsedNetwork parsed;
  std::string error;
  EXPECT_TRUE(parse_network_config(text, parsed, error)) << error;
  const std::unique_ptr<Policy> policy = make_policy(parsed.net, spec, error);
  EXPECT_NE(policy, nullptr) << error;
  Outcome out;
  if (policy == nullptr) return out;
  Verifier verifier(parsed.net, opts);
  const VerifyResult r = verifier.verify(*policy);
  out.verdict = r.verdict;
  for (const PecReport& rep : r.reports) {
    if (!rep.result.violations.empty()) out.violating.insert(rep.pec_str);
    if (rep.result.verdict() != Verdict::kHolds) ++out.nonclean;
  }
  return out;
}

/// A delta that rewrites `from` into `to` line by line: every line removed,
/// then every line of `to` appended in order. Reverting an edit this way
/// restores the earlier text exactly, so its cones come back and its clean
/// holds are served from the cache again.
ApplyDeltaMsg rewrite_delta(const std::string& from, const std::string& to) {
  ApplyDeltaMsg d;
  for (std::string& l : lines_of(from)) d.ops.push_back({false, std::move(l)});
  for (std::string& l : lines_of(to)) d.ops.push_back({true, std::move(l)});
  return d;
}

struct Tally {
  std::uint64_t deltas = 0, rejected = 0, hits = 0, violated = 0;
};

/// Checks the served answer to `query` against a fresh Verifier.
void check_query(ServeState& state, const QueryMsg& query,
                 const VerifyOptions& opts, Tally& tally) {
  SCOPED_TRACE("query '" + query.policy_spec + "'");
  const VerdictReplyMsg reply = state.query(query);
  EXPECT_TRUE(reply.ok) << reply.error;
  tally.hits += reply.cache_hits;
  std::set<std::string> served;
  for (const ViolationText& v : reply.violations) served.insert(v.pec);
  const Outcome fresh =
      fresh_outcome(state.config_text(), query.policy_spec, opts);
  EXPECT_EQ(static_cast<Verdict>(reply.verdict), fresh.verdict)
      << "served verdict differs from a fresh verification";
  if (reply.violations.size() < kMaxReplyViolations) {
    EXPECT_EQ(served, fresh.violating)
        << "served violating PECs differ from a fresh verification";
  } else {
    EXPECT_TRUE(std::includes(fresh.violating.begin(), fresh.violating.end(),
                              served.begin(), served.end()));
  }
  // The reply lists at most 64 violations, so count PECs as well: a repeat
  // query hits every clean hold the first one stored and re-verifies exactly
  // the PECs that are not clean holds. A stale hit would serve one of those
  // from the cache.
  const VerdictReplyMsg again = state.query(query);
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_EQ(static_cast<Verdict>(again.verdict), fresh.verdict);
  EXPECT_EQ(again.reverified, fresh.nonclean)
      << "a PEC that is not a clean hold was served from the cache";
  if (fresh.verdict == Verdict::kViolated) ++tally.violated;
}

/// Applies `delta` and checks every query. False when the delta was
/// rejected.
bool apply_and_check(ServeState& state, const ApplyDeltaMsg& delta,
                     const std::vector<QueryMsg>& queries,
                     const VerifyOptions& opts, Tally& tally) {
  std::string trace;
  for (const DeltaOp& op : delta.ops) {
    trace += (op.add ? " +[" : " -[") + op.line + "]";
  }
  SCOPED_TRACE("delta" + trace);
  const std::string before = state.config_text();
  std::string error;
  if (!state.apply_delta(delta, error)) {
    // Some edits make the config invalid (an iBGP session losing its
    // loopback); the batch must then leave the resident state as it was.
    ++tally.rejected;
    EXPECT_EQ(state.config_text(), before);
    return false;
  }
  ++tally.deltas;
  for (const QueryMsg& q : queries) check_query(state, q, opts, tally);
  return true;
}

TEST(ServeDifferential, CachedVerdictsMatchFreshVerifierAcrossDeltaStreams) {
  const int count = instance_count();
  Tally tally;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    const std::string spec = inst.policy->spec(inst.net);
    if (spec.empty()) continue;
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", policy '" + spec + "')");
    VerifyOptions opts;
    opts.cores = 1;
    opts.explore = inst.explore;
    opts.explore.find_all_violations = true;  // no early-stop nondeterminism
    ServeState state{opts};
    std::string error;
    ASSERT_TRUE(state.load(render_config(inst.net), error)) << error;
    // The instance's policy, plus loop freedom and a tight path-length
    // bound from the last device: statics move the first on every topology
    // family, and link costs move the second through path choice.
    const auto k = static_cast<std::uint32_t>(inst.max_failures);
    const std::string last = inst.net.device(
        static_cast<NodeId>(inst.net.topo.node_count() - 1)).name;
    std::vector<QueryMsg> queries = {{spec, k}};
    for (const std::string& extra : {std::string("loop"), "bounded 2 " + last}) {
      if (extra != spec) queries.push_back({extra, k});
    }
    for (const QueryMsg& q : queries) {
      ASSERT_TRUE(state.query(q).ok);  // cold: fills the cache
    }

    // Edits mostly revert right away, so the config stays near the cached
    // base: an edit that flips a verdict without moving the PEC's cone is
    // then served the base's verdict, and the check above catches it.
    Rng rng(static_cast<std::uint64_t>(seed) * 0x2545F4914F6CDD1Dull + 17);
    for (int step = 0; step < kEditsPerInstance; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::string base = state.config_text();
      const ApplyDeltaMsg edit = next_delta(rng, state.net(), base);
      if (apply_and_check(state, edit, queries, opts, tally) &&
          rng() % 3 != 0) {
        apply_and_check(state, rewrite_delta(state.config_text(), base),
                        queries, opts, tally);
      }
    }
  }
  // The stream must exercise what it claims to: cache hits after deltas,
  // verdicts that flip to violated, and mostly valid edits.
  EXPECT_GT(tally.hits, 0u);
  EXPECT_GT(tally.violated, 0u);
  EXPECT_GT(tally.deltas, 4 * tally.rejected);
  std::printf("serve differential: %llu deltas (%llu rejected), %llu cache "
              "hits, %llu violated verdicts\n",
              static_cast<unsigned long long>(tally.deltas),
              static_cast<unsigned long long>(tally.rejected),
              static_cast<unsigned long long>(tally.hits),
              static_cast<unsigned long long>(tally.violated));
}

}  // namespace
}  // namespace plankton::serve
