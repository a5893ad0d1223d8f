// Serve-layer verdict cache (src/serve/): fingerprint stability and scoping,
// the clean-hold-only key set, delta invalidation exactness, and the wire
// codecs' hostile-input behaviour. Warm starts through the journal's
// compaction snapshot are in test_serve_journal.cpp.
//
// The two contracts pinned here:
//   · fingerprints are bit-identical across independently parsed copies of
//     the same config (serialize -> deserialize -> recompute), which is what
//     makes a journal-persisted cache meaningful across restarts;
//   · a cache hit never masks a non-clean verdict — violated, inconclusive
//     and approximated outcomes are never stored, so every query re-verifies
//     them.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "eqclass/pec_dedup.hpp"
#include "serve/serve.hpp"
#include "serve/verdict_cache.hpp"

namespace plankton::serve {
namespace {

const char* kRing = R"(
node r0 loopback 10.0.0.1
node r1 loopback 10.0.0.2
node r2 loopback 10.0.0.3
node r3 loopback 10.0.0.4
link r0 r1 cost 10
link r1 r2 cost 10
link r2 r3 cost 10
link r3 r0 cost 10
ospf r0 no-loopback
ospf r1 no-loopback
ospf r2 no-loopback
ospf r3 no-loopback
ospf r0 originate 10.1.0.0/24
ospf r1 originate 10.2.0.0/24
ospf r2 originate 10.3.0.0/24
ospf r3 originate 10.4.0.0/24
)";

/// ServeState owns mutexes (not movable), so tests construct in place and
/// load through this helper.
void load_ring(ServeState& state, const std::string& extra = "") {
  std::string error;
  ASSERT_TRUE(state.load(std::string(kRing) + extra, error)) << error;
}

QueryMsg loop_query() {
  QueryMsg q;
  q.policy_spec = "loop";
  return q;
}

// ---------------------------------------------------------------------------
// Fingerprint stability and scoping
// ---------------------------------------------------------------------------

TEST(ServeFingerprints, BitIdenticalAcrossIndependentParses) {
  // serialize -> deserialize -> recompute: two ServeStates built from the
  // same text (and a third from the rendered round-trip) must agree on every
  // residue and every dependency-cone hash. This is the property that lets
  // a journal-persisted cache warm-start a fresh process.
  ServeState a{VerifyOptions{}};
  ServeState b{VerifyOptions{}};
  load_ring(a);
  load_ring(b);

  const auto fa = compute_pec_fingerprints(a.net(), a.verifier().pecs());
  const auto fb = compute_pec_fingerprints(b.net(), b.verifier().pecs());
  ASSERT_EQ(fa.size(), fb.size());
  ASSERT_FALSE(fa.empty());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i], fb[i]) << "PEC " << i;
    EXPECT_EQ(a.cone_of(i), b.cone_of(i)) << "PEC " << i;
  }

  ServeState c{VerifyOptions{}};
  std::string error;
  ASSERT_TRUE(c.load(render_config(a.net()), error)) << error;
  const auto fc = compute_pec_fingerprints(c.net(), c.verifier().pecs());
  ASSERT_EQ(fc.size(), fa.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fc[i], fa[i]) << "render round-trip moved PEC " << i;
    EXPECT_EQ(c.cone_of(i), a.cone_of(i)) << "PEC " << i;
  }
}

TEST(ServeFingerprints, RenderConfigIdempotentThroughParser) {
  const char* text = R"(
node a loopback 1.1.1.1
node b loopback 2.2.2.2
node c
link a b cost 10
link b c cost 5 cost-ba 7
ospf a enable
ospf b originate 10.2.0.0/16
ospf c no-loopback
static a 172.16.0.0/12 via b
static c 0.0.0.0/0 drop
bgp a asn 65001
bgp b asn 65002
bgp-session a b ebgp
bgp a originate 203.0.113.0/24
route-map a b import permit match-prefix 203.0.0.0/16 or-longer set-local-pref 250 add-community PEERS
route-map b a export deny match-community PEERS
route-map-default b a export permit
)";
  ParsedNetwork first;
  std::string error;
  ASSERT_TRUE(parse_network_config(text, first, error)) << error;
  const auto names = community_names_of(first.communities);
  const std::string rendered = render_config(first.net, names);

  ParsedNetwork second;
  ASSERT_TRUE(parse_network_config(rendered, second, error)) << error;
  EXPECT_EQ(render_config(second.net, community_names_of(second.communities)),
            rendered)
      << "render(parse(render(net))) must be a fixed point";
}

TEST(ServeFingerprints, ResidueScopedToIntersectingRanges) {
  // A static route for 10.2.0.0/24 must move exactly the PECs that range
  // can influence — every other fingerprint (and cone) stays bit-identical.
  ServeState base{VerifyOptions{}};
  ServeState edited{VerifyOptions{}};
  load_ring(base);
  load_ring(edited, "static r0 10.2.0.0/24 via r1\n");

  const PecSet& bp = base.verifier().pecs();
  const PecSet& ep = edited.verifier().pecs();
  ASSERT_EQ(bp.pecs.size(), ep.pecs.size())
      << "the static targets an existing boundary; the partition is stable";
  const auto fb = compute_pec_fingerprints(base.net(), bp);
  const auto fe = compute_pec_fingerprints(edited.net(), ep);
  std::size_t moved = 0;
  const Prefix target = *Prefix::parse("10.2.0.0/24");
  for (std::size_t i = 0; i < bp.pecs.size(); ++i) {
    ASSERT_EQ(bp.pecs[i].str(), ep.pecs[i].str()) << "PEC " << i;
    const bool hit = target.contains(bp.pecs[i].lo);
    if (fb[i] != fe[i]) {
      ++moved;
      EXPECT_TRUE(hit) << "PEC " << bp.pecs[i].str()
                       << " moved without intersecting the edited range";
    } else {
      EXPECT_FALSE(hit) << "PEC " << bp.pecs[i].str()
                        << " intersects the edit but did not move";
      EXPECT_EQ(base.cone_of(i), edited.cone_of(i));
    }
  }
  EXPECT_EQ(moved, 1u);
}

// ---------------------------------------------------------------------------
// VerdictCache unit behaviour
// ---------------------------------------------------------------------------

TEST(VerdictCache, LookupServesOnlyCleanHolds) {
  VerdictCache cache;
  const CacheKey hold_key{1, 2};
  cache.insert(hold_key, Verdict::kHolds);
  cache.insert(CacheKey{3, 4}, Verdict::kViolated);
  cache.insert(CacheKey{5, 6}, Verdict::kInconclusive);
  cache.insert(CacheKey{7, 8}, Verdict::kError);
  EXPECT_EQ(cache.size(), 1u) << "only the hold is stored";

  EXPECT_TRUE(cache.lookup(hold_key));
  EXPECT_FALSE(cache.lookup(CacheKey{3, 4}));
  EXPECT_FALSE(cache.lookup(CacheKey{5, 6}));
  EXPECT_FALSE(cache.lookup(CacheKey{7, 8}));

  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(VerdictCache, ConcurrentHammerKeepsCountsCoherent) {
  VerdictCache cache;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Overlapping key ranges across threads: inserts race with lookups
        // on the same stripes.
        const CacheKey key{i, static_cast<std::uint64_t>(t % 2)};
        cache.insert(key, Verdict::kHolds);
        ASSERT_TRUE(cache.lookup(key));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), kPerThread * 2);
  EXPECT_EQ(cache.counters().hits, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// ServeState end-to-end: hits, re-verification, deltas
// ---------------------------------------------------------------------------

TEST(ServeStateCache, RepeatQueryServesFromCache) {
  ServeState state{VerifyOptions{}};
  load_ring(state);
  const VerdictReplyMsg cold = state.query(loop_query());
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(static_cast<Verdict>(cold.verdict), Verdict::kHolds);
  EXPECT_EQ(cold.targets, 4u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.reverified, 4u);

  const VerdictReplyMsg warm = state.query(loop_query());
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(static_cast<Verdict>(warm.verdict), Verdict::kHolds);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.reverified, 0u) << "a clean hold must not re-explore";

  const CacheStatsMsg stats = state.cache_stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.hits, 4u);

  // A different question (other policy, other failure bound) is a different
  // ctx: it must miss rather than reuse the loop verdicts.
  QueryMsg other = loop_query();
  other.max_failures = 1;
  const VerdictReplyMsg bounded = state.query(other);
  ASSERT_TRUE(bounded.ok);
  EXPECT_EQ(bounded.cache_hits, 0u);
  EXPECT_EQ(bounded.reverified, 4u);
}

TEST(ServeStateCache, CacheHitNeverMasksViolation) {
  ServeState state{VerifyOptions{}};
  load_ring(state);
  ASSERT_TRUE(state.query(loop_query()).ok);

  // Pin 10.3.0.0/24 into a static forwarding loop between r0 and r1
  // (examples/ring_loop.delta).
  ApplyDeltaMsg delta;
  delta.ops.push_back({true, "static r0 10.3.0.0/24 via r1"});
  delta.ops.push_back({true, "static r1 10.3.0.0/24 via r0"});
  std::string error;
  ASSERT_TRUE(state.apply_delta(delta, error)) << error;
  EXPECT_EQ(state.last_moved(), 1u) << "only the 10.3.0.0/24 PEC moved";

  const std::size_t size_before = state.cache().size();
  const VerdictReplyMsg first = state.query(loop_query());
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(static_cast<Verdict>(first.verdict), Verdict::kViolated);
  EXPECT_EQ(first.cache_hits, 3u) << "unmoved PECs stay warm";
  EXPECT_EQ(first.reverified, 1u) << "exactly the moved PEC re-verifies";
  ASSERT_FALSE(first.violations.empty());
  EXPECT_EQ(state.cache().size(), size_before)
      << "a violated verdict must not be stored";

  // The violated PEC must re-verify on every subsequent query instead of
  // being served as a hit.
  const VerdictReplyMsg again = state.query(loop_query());
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(static_cast<Verdict>(again.verdict), Verdict::kViolated);
  EXPECT_EQ(again.cache_hits, 3u);
  EXPECT_EQ(again.reverified, 1u)
      << "a violation must never satisfy a lookup";
  EXPECT_EQ(state.cache().size(), size_before);

  // Reverting the delta restores the original cone hashes: everything hits.
  ApplyDeltaMsg revert;
  revert.ops.push_back({false, "static r0 10.3.0.0/24 via r1"});
  revert.ops.push_back({false, "static r1 10.3.0.0/24 via r0"});
  ASSERT_TRUE(state.apply_delta(revert, error)) << error;
  const VerdictReplyMsg restored = state.query(loop_query());
  ASSERT_TRUE(restored.ok);
  EXPECT_EQ(static_cast<Verdict>(restored.verdict), Verdict::kHolds);
  EXPECT_EQ(restored.cache_hits, 4u);
  EXPECT_EQ(restored.reverified, 0u);
}

/// Pec::str() → cone hash of every resident PEC, read through the public
/// API, so a test can recount moved PECs without apply_delta's bookkeeping.
std::map<std::string, std::uint64_t> cone_snapshot(const ServeState& state) {
  std::map<std::string, std::uint64_t> out;
  const PecSet& pecs = state.verifier().pecs();
  for (PecId p = 0; p < pecs.pecs.size(); ++p) {
    out.emplace(pecs.pecs[p].str(), state.cone_of(p));
  }
  return out;
}

struct MovedRecount {
  std::size_t changed = 0;   ///< in both snapshots, under another cone hash
  std::size_t appeared = 0;  ///< only after
  std::size_t vanished = 0;  ///< only before
  [[nodiscard]] std::size_t total() const {
    return changed + appeared + vanished;
  }
};

MovedRecount recount_moved(const std::map<std::string, std::uint64_t>& before,
                           const std::map<std::string, std::uint64_t>& after) {
  MovedRecount n;
  for (const auto& [id, cone] : after) {
    const auto it = before.find(id);
    if (it == before.end()) {
      ++n.appeared;
    } else if (it->second != cone) {
      ++n.changed;
    }
  }
  for (const auto& [id, cone] : before) n.vanished += after.count(id) == 0;
  return n;
}

TEST(ServeStateCache, MovedCountsChangedAppearedAndVanishedPecs) {
  // last_moved() counts the PECs a delta moved: the cone hash changed, or
  // the PEC appeared or vanished. Three deltas exercise each kind, and
  // after each the count must equal a recount from snapshots of
  // (Pec::str(), cone_of(p)) taken here.
  ServeState state{VerifyOptions{}};
  load_ring(state);
  const auto apply = [&state](bool add, const std::string& line) {
    const auto before = cone_snapshot(state);
    ApplyDeltaMsg delta;
    delta.ops.push_back({add, line});
    std::string error;
    EXPECT_TRUE(state.apply_delta(delta, error)) << error;
    const MovedRecount n = recount_moved(before, cone_snapshot(state));
    EXPECT_EQ(state.last_moved(), n.total()) << (add ? "add " : "del ") << line;
    return n;
  };

  // A static over a whole originated range edits that one PEC's cone.
  const MovedRecount edit = apply(true, "static r0 10.3.0.0/24 via r1");
  EXPECT_EQ(edit.changed, 1u);
  EXPECT_EQ(edit.appeared, 0u);
  EXPECT_EQ(edit.vanished, 0u);

  // A /32 inside it splits the range: the /24's PEC vanishes, and the /32
  // and the two pieces around it appear.
  const MovedRecount split = apply(true, "static r2 10.3.0.5/32 via r1");
  EXPECT_EQ(split.vanished, 1u);
  EXPECT_EQ(split.appeared, 3u);

  // Removing the /32 merges the pieces back into the one /24 PEC.
  const MovedRecount merge = apply(false, "static r2 10.3.0.5/32 via r1");
  EXPECT_EQ(merge.appeared, split.vanished);
  EXPECT_EQ(merge.vanished, split.appeared);
}

TEST(ServeStateCache, FailureBoundAboveIntMaxIsRefused) {
  // ExploreOptions::max_failures is an int. A wire k above INT32_MAX used to
  // wrap negative, fail no link, and cache HOLDS under the key of the
  // original k. On this line only a failure of link b-c blackholes a.
  ServeState state{VerifyOptions{}};
  std::string error;
  ASSERT_TRUE(state.load("node a\nnode b\nnode c\n"
                         "link a b cost 10\nlink b c cost 10\n"
                         "ospf a enable\nospf b enable\nospf c enable\n"
                         "ospf c originate 10.3.0.0/24\n",
                         error))
      << error;
  QueryMsg q;
  q.policy_spec = "blackhole a";
  for (const std::uint32_t k : {1u, 0x7fffffffu}) {
    q.max_failures = k;
    const VerdictReplyMsg r = state.query(q);
    ASSERT_TRUE(r.ok) << "k=" << k << ": " << r.error;
    EXPECT_EQ(static_cast<Verdict>(r.verdict), Verdict::kViolated)
        << "k=" << k;
  }
  const CacheStatsMsg before = state.cache_stats();
  for (const std::uint32_t k : {0x80000000u, 0xffffffffu}) {
    q.max_failures = k;
    const VerdictReplyMsg r = state.query(q);
    EXPECT_FALSE(r.ok) << "k=" << k;
    EXPECT_EQ(static_cast<Verdict>(r.verdict), Verdict::kError) << "k=" << k;
    EXPECT_NE(r.error.find("2147483647"), std::string::npos)
        << "the reply names the bound: " << r.error;
    EXPECT_EQ(r.reverified, 0u) << "k=" << k;
  }
  const CacheStatsMsg after = state.cache_stats();
  EXPECT_EQ(after.hits, before.hits) << "a refused query does no lookup";
  EXPECT_EQ(after.misses, before.misses) << "a refused query does no lookup";
  EXPECT_EQ(after.insertions, before.insertions)
      << "a refused query inserts nothing";
}

TEST(ServeStateCache, OneVerifierAnswersEveryFailureBound) {
  // The resident Verifier verifies each query's misses under that query's
  // own k, so a bound must never stick to the next query. On this line only
  // a failure of link b-c cuts a off: "reach a" after a k=1 query would read
  // VIOLATED if k stuck.
  const std::string line =
      "node a\nnode b\nnode c\n"
      "link a b cost 10\nlink b c cost 10\n"
      "ospf a enable\nospf b enable\nospf c enable\n"
      "ospf c originate 10.3.0.0/24\n";
  ServeState state{VerifyOptions{}};
  std::string error;
  ASSERT_TRUE(state.load(line, error)) << error;
  const ParsedNetwork parsed = parse_network_config(line);
  for (const char* spec : {"blackhole a", "reach a"}) {
    for (const std::uint32_t k : {0u, 1u, 0u}) {
      SCOPED_TRACE(std::string(spec) + " k=" + std::to_string(k));
      QueryMsg q;
      q.policy_spec = spec;
      q.max_failures = k;
      const VerdictReplyMsg r = state.query(q);
      ASSERT_TRUE(r.ok) << r.error;

      VerifyOptions vo;
      vo.explore.max_failures = static_cast<int>(k);
      const std::unique_ptr<Policy> policy =
          make_policy(parsed.net, spec, error);
      ASSERT_NE(policy, nullptr) << error;
      const VerifyResult fresh = Verifier(parsed.net, vo).verify(*policy);
      EXPECT_EQ(static_cast<Verdict>(r.verdict), fresh.verdict);
      EXPECT_EQ(fresh.verdict, k == 0 ? Verdict::kHolds : Verdict::kViolated);
      std::size_t fresh_violations = 0;
      for (const PecReport& rep : fresh.reports) {
        fresh_violations += rep.result.violations.size();
      }
      EXPECT_EQ(r.violations.size(), fresh_violations);
    }
  }
}

TEST(ServeStateCache, InconclusiveIsNeverServedAsHold) {
  VerifyOptions opts;
  opts.explore.budget.max_states = 1;  // every PEC trips immediately
  ServeState state{opts};
  std::string error;
  ASSERT_TRUE(state.load(kRing, error)) << error;

  const VerdictReplyMsg first = state.query(loop_query());
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(static_cast<Verdict>(first.verdict), Verdict::kInconclusive);
  EXPECT_EQ(first.reverified, 4u);
  EXPECT_EQ(state.cache().size(), 0u) << "a tripped budget stores nothing";

  const VerdictReplyMsg second = state.query(loop_query());
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(static_cast<Verdict>(second.verdict), Verdict::kInconclusive);
  EXPECT_EQ(second.cache_hits, 0u)
      << "an inconclusive PEC must not short-circuit to a hold";
  EXPECT_EQ(second.reverified, 4u);
  EXPECT_EQ(state.cache().size(), 0u);
}

TEST(ServeStateCache, BitstateRunIsNeverCachedAsHold) {
  // The Bloom-filter store can miss states, so no run over it is a proof:
  // every PEC ends inconclusive, nothing is stored, every query re-verifies.
  VerifyOptions opts;
  opts.explore.visited = VisitedKind::kBitstate;
  ServeState state{opts};
  load_ring(state);
  for (int round = 0; round < 2; ++round) {
    const VerdictReplyMsg r = state.query(loop_query());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(static_cast<Verdict>(r.verdict), Verdict::kInconclusive);
    EXPECT_EQ(r.cache_hits, 0u) << "round " << round;
    EXPECT_EQ(r.reverified, 4u) << "round " << round;
    EXPECT_EQ(state.cache().size(), 0u) << "round " << round;
  }
}

TEST(ServeStateCache, ApproximatedCyclicSccIsNeverCachedAsHold) {
  // Mutual recursive statics put the next-hop PECs 10.0.0.1 and 20.0.0.1
  // into one cyclic SCC: each mate explores without the other's outcomes, so
  // their holds are approximations, and so are the holds of the four other
  // /17 PECs that resolve through them. All six must reach the cache as
  // inconclusive and re-verify on every query, while the two unrelated
  // upper /17 halves stay warm.
  const std::string cyclic = R"(
node a loopback 1.1.1.1
node b loopback 2.2.2.2
node c loopback 3.3.3.3
link a b
link b c
ospf a no-loopback
ospf b no-loopback
ospf c no-loopback
ospf a originate 10.0.0.0/16
ospf c originate 20.0.0.0/16
static a 20.0.0.0/17 via-ip 10.0.0.1
static c 10.0.0.0/17 via-ip 20.0.0.1
)";
  ServeState state{VerifyOptions{}};
  std::string error;
  ASSERT_TRUE(state.load(cyclic, error)) << error;

  const VerdictReplyMsg first = state.query(loop_query());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(static_cast<Verdict>(first.verdict), Verdict::kInconclusive);
  EXPECT_EQ(first.cache_hits, 0u);
  ASSERT_EQ(first.targets, 8u);
  EXPECT_EQ(state.cache().size(), 2u)
      << "only the two clean holds outside the SCC's cone are stored";

  const VerdictReplyMsg second = state.query(loop_query());
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(static_cast<Verdict>(second.verdict), Verdict::kInconclusive);
  EXPECT_EQ(second.reverified, 6u)
      << "approximated PECs must re-verify, never hit the cache";
  EXPECT_EQ(second.cache_hits, 2u)
      << "the PECs outside the SCC's cone are clean holds and stay warm";
  EXPECT_EQ(state.cache().size(), 2u);
}

TEST(ServeStateCache, DeltaFailuresAreAtomic) {
  ServeState state{VerifyOptions{}};
  load_ring(state);
  ASSERT_TRUE(state.query(loop_query()).ok);
  const std::string before = state.config_text();

  ApplyDeltaMsg bad;
  bad.ops.push_back({true, "static r0 10.9.0.0/24 via r1"});
  bad.ops.push_back({false, "no such line"});
  std::string error;
  EXPECT_FALSE(state.apply_delta(bad, error));
  EXPECT_NE(error.find("no such line"), std::string::npos) << error;
  EXPECT_EQ(state.config_text(), before)
      << "a failed batch must leave the resident config untouched";

  ApplyDeltaMsg unparsable;
  unparsable.ops.push_back({true, "link r0 r9"});
  EXPECT_FALSE(state.apply_delta(unparsable, error));
  EXPECT_EQ(state.config_text(), before);

  const VerdictReplyMsg after = state.query(loop_query());
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.cache_hits, 4u) << "failed deltas must not move any PEC";
}

// ---------------------------------------------------------------------------
// Wire codecs: round trips and hostile-input fuzz
// ---------------------------------------------------------------------------

template <typename Msg>
void check_codec(const Msg& m, std::string (*enc)(const Msg&),
                 bool (*dec)(std::string_view, Msg&), bool (*eq)(const Msg&, const Msg&)) {
  const std::string wire = enc(m);
  Msg out;
  ASSERT_TRUE(dec(wire, out));
  EXPECT_TRUE(eq(m, out));
  // Every strict prefix is a truncation and must be rejected without
  // touching undefined bytes; a trailing byte is garbage.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Msg trash;
    EXPECT_FALSE(dec(std::string_view(wire).substr(0, cut), trash))
        << "accepted a " << cut << "-byte prefix of " << wire.size();
  }
  Msg trash;
  EXPECT_FALSE(dec(wire + '\0', trash));
}

TEST(ServeCodecs, RoundTripsAndRejectsTruncation) {
  LoadNetMsg load;
  load.config_text = std::string("node a\nnode b\x00\xff weird", 20);
  check_codec<LoadNetMsg>(
      load, encode_load_net, decode_load_net,
      [](const LoadNetMsg& a, const LoadNetMsg& b) {
        return a.config_text == b.config_text;
      });

  ApplyDeltaMsg delta;
  delta.ops.push_back({true, "static r0 10.3.0.0/24 via r1"});
  delta.ops.push_back({false, ""});
  check_codec<ApplyDeltaMsg>(
      delta, encode_apply_delta, decode_apply_delta,
      [](const ApplyDeltaMsg& a, const ApplyDeltaMsg& b) {
        if (a.ops.size() != b.ops.size()) return false;
        for (std::size_t i = 0; i < a.ops.size(); ++i) {
          if (a.ops[i].add != b.ops[i].add || a.ops[i].line != b.ops[i].line)
            return false;
        }
        return true;
      });

  QueryMsg query;
  query.policy_spec = "waypoint fw e0 e1";
  query.max_failures = 3;
  check_codec<QueryMsg>(query, encode_query, decode_query,
                        [](const QueryMsg& a, const QueryMsg& b) {
                          return a.policy_spec == b.policy_spec &&
                                 a.max_failures == b.max_failures;
                        });

  VerdictReplyMsg reply;
  reply.ok = true;
  reply.verdict = static_cast<std::uint8_t>(Verdict::kViolated);
  reply.targets = 18;
  reply.cache_hits = 17;
  reply.reverified = 1;
  reply.moved = 1;
  reply.wall_ns = 123456789;
  reply.violations.push_back({"[10.3.0.0 .. 10.3.0.255]", "loop r0->r1->r0"});
  check_codec<VerdictReplyMsg>(
      reply, encode_verdict_reply, decode_verdict_reply,
      [](const VerdictReplyMsg& a, const VerdictReplyMsg& b) {
        if (a.ok != b.ok || a.verdict != b.verdict || a.error != b.error ||
            a.targets != b.targets || a.cache_hits != b.cache_hits ||
            a.reverified != b.reverified || a.moved != b.moved ||
            a.wall_ns != b.wall_ns ||
            a.violations.size() != b.violations.size())
          return false;
        for (std::size_t i = 0; i < a.violations.size(); ++i) {
          if (a.violations[i].pec != b.violations[i].pec ||
              a.violations[i].message != b.violations[i].message)
            return false;
        }
        return true;
      });

  CacheStatsMsg stats;
  stats.hits = 1;
  stats.misses = 2;
  stats.insertions = 3;
  stats.warm_loaded = 4;
  stats.entries = 5;
  check_codec<CacheStatsMsg>(
      stats, encode_cache_stats, decode_cache_stats,
      [](const CacheStatsMsg& a, const CacheStatsMsg& b) {
        return a.hits == b.hits && a.misses == b.misses &&
               a.insertions == b.insertions &&
               a.warm_loaded == b.warm_loaded && a.entries == b.entries;
      });
}

TEST(ServeCodecs, RejectsHostileCounts) {
  // A count field claiming more elements than the payload can hold must be
  // rejected up front (fits()), not drive a giant allocation.
  std::string evil;
  evil.push_back('\xff');
  evil.push_back('\xff');
  evil.push_back('\xff');
  evil.push_back('\xff');
  ApplyDeltaMsg delta;
  EXPECT_FALSE(decode_apply_delta(evil, delta));
  EXPECT_TRUE(delta.ops.empty());

  VerdictReplyMsg reply;
  EXPECT_FALSE(decode_verdict_reply(evil, reply));

  // An op flag outside {0, 1} is corruption, not a bool.
  ApplyDeltaMsg one_op;
  one_op.ops.push_back({true, "x"});
  std::string wire = encode_apply_delta(one_op);
  wire[4] = 2;
  EXPECT_FALSE(decode_apply_delta(wire, delta));
}

}  // namespace
}  // namespace plankton::serve
