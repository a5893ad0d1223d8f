// Visited-store parity (§4.4, Fig. 9): the exact and bitstate stores are
// the two kinds of VisitedBackend — on the Fig. 9 workloads both must
// explore the same violation set.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/verifier.hpp"
#include "engine/search.hpp"
#include "engine/state_codec.hpp"
#include "engine/visited.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

constexpr VisitedKind kAllKinds[] = {VisitedKind::kExact,
                                     VisitedKind::kBitstate};

TEST(VisitedBackends, InsertSemantics) {
  for (const VisitedKind kind : kAllKinds) {
    VisitedBackend store(kind, 1 << 16);
    EXPECT_TRUE(store.insert(42)) << to_string(kind);
    EXPECT_FALSE(store.insert(42)) << to_string(kind);
    EXPECT_TRUE(store.insert(43)) << to_string(kind);
    EXPECT_GT(store.bytes(), 0u);
  }
  EXPECT_STREQ(to_string(VisitedKind::kExact), "exact");
  EXPECT_STREQ(to_string(VisitedKind::kBitstate), "bitstate");
}

TEST(VisitedBackends, NoFalseFreshAfterInsert) {
  // The Bloom store may over-approximate "seen" but neither store may ever
  // report an inserted key as new again.
  for (const VisitedKind kind : kAllKinds) {
    VisitedBackend store(kind, 1 << 20);
    std::mt19937_64 rng(23);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 20000; ++i) keys.push_back(rng());
    for (const auto k : keys) store.insert(k);
    for (const auto k : keys) {
      ASSERT_FALSE(store.insert(k)) << to_string(kind);
    }
  }
}

/// The distinct (pec, failure-set, message) triples of a run, sorted: the
/// observable violation set. The bitstate store may reach the same violating
/// converged state through fewer interleavings (duplicates collapse), but
/// the *set* must match the exact backend's.
std::vector<std::string> violation_set(const VerifyResult& r) {
  std::vector<std::string> out;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      out.push_back(rep.pec_str + "|" + v.failures.str() + "|" + v.message);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(VisitedBackends, ParityOnFig9DcWaypoint) {
  // The Fig. 9 state-heavy workload: BGP data-center waypoint check with
  // BGP det-node detection disabled (worst-case convergence enumeration),
  // on the broken-statics variant so violations exist.
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
  std::vector<std::vector<std::string>> sets;
  std::vector<Verdict> verdicts;
  for (const VisitedKind kind : kAllKinds) {
    VerifyOptions vo;
    vo.explore.visited = kind;
    vo.explore.bloom_bits = 1 << 22;
    vo.explore.det_nodes_bgp = false;
    vo.explore.find_all_violations = true;
    Verifier v(ft.net, vo);
    const VerifyResult r = v.verify_address(ft.edge_prefixes[0].addr(), policy);
    sets.push_back(violation_set(r));
    verdicts.push_back(r.verdict);
  }
  ASSERT_FALSE(sets[0].empty()) << "workload must produce violations";
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(sets[0], sets[1]);
}

TEST(VisitedBackends, ParityOnFailureEnumeration) {
  // Fig. 9's uncapped agreement check, scaled down: reachability under all
  // 1-failure scenarios; both stores report the identical violation set.
  const Network net = make_ring(8);
  const ReachabilityPolicy policy({4});
  std::vector<std::vector<std::string>> sets;
  for (const VisitedKind kind : kAllKinds) {
    VerifyOptions vo;
    vo.explore.visited = kind;
    vo.explore.bloom_bits = 1 << 22;
    vo.explore.max_failures = 2;
    vo.explore.find_all_violations = true;
    vo.explore.suppress_equivalent = false;
    Verifier v(net, vo);
    sets.push_back(violation_set(v.verify(policy)));
  }
  ASSERT_FALSE(sets[0].empty()) << "workload must produce violations";
  EXPECT_EQ(sets[0], sets[1]);
}

TEST(VisitedBackends, SpfPassBuildsNoStore) {
  // Loop freedom on an all-OSPF ring runs every phase as one SPF-ordered
  // pass, which never probes a visited store, so the explorer builds none:
  // the bitstate kind must not allocate its (default 2^27-bit) filter, and
  // both kinds report the same model memory and stored states.
  const Network net = make_ring(8);
  const LoopFreedomPolicy policy;
  std::vector<VerifyResult> runs;
  for (const VisitedKind kind : kAllKinds) {
    VerifyOptions vo;
    vo.explore.visited = kind;
    vo.explore.max_failures = 1;
    runs.push_back(Verifier(net, vo).verify(policy));
  }
  EXPECT_GT(runs[0].total.states_stored, 0u);
  EXPECT_EQ(runs[0].total.states_stored, runs[1].total.states_stored);
  EXPECT_EQ(runs[0].total.bytes_visited, runs[1].total.bytes_visited);
  EXPECT_LT(runs[1].total.bytes_visited, std::size_t{1} << 20);
  EXPECT_EQ(runs[0].verdict, Verdict::kHolds);
  EXPECT_EQ(runs[1].verdict, Verdict::kInconclusive)
      << "no run over the bitstate kind is a proof, store or not";
}

TEST(StateCodec, MoveOrderIndependence) {
  // Zobrist encoding: the same RIB reached through different move orders
  // has the same key; different RIBs differ.
  StateCodec a, b;
  a.reset(1);
  b.reset(1);
  a.begin_root(7, 9);
  b.begin_root(7, 9);
  a.begin_phase(0);
  b.begin_phase(0);
  a.record(0, 1, kNoRoute, 5);
  a.record(0, 2, kNoRoute, 6);
  b.record(0, 2, kNoRoute, 6);
  b.record(0, 1, kNoRoute, 5);
  EXPECT_EQ(a.state_key(0), b.state_key(0));
  a.record(0, 3, kNoRoute, 7);
  EXPECT_NE(a.state_key(0), b.state_key(0));
  a.record(0, 3, 7, kNoRoute);  // undo
  EXPECT_EQ(a.state_key(0), b.state_key(0));
}

TEST(StateCodec, PhaseContextChainsHistory) {
  // Identical phase-1 RIBs reached under different phase-0 outcomes must
  // not collide: the context chain folds converged history into the key.
  StateCodec a, b;
  a.reset(2);
  b.reset(2);
  a.begin_root(1, 0);
  b.begin_root(1, 0);
  a.begin_phase(0);
  b.begin_phase(0);
  a.record(0, 1, kNoRoute, 5);
  b.record(0, 1, kNoRoute, 6);  // different converged phase-0 state
  a.begin_phase(1);
  b.begin_phase(1);
  EXPECT_NE(a.state_key(1), b.state_key(1));
}

TEST(SearchEngines, FactoryProvidesStrategies) {
  const auto dfs = make_search_engine(SearchEngineKind::kDfs);
  const auto sim = make_search_engine(SearchEngineKind::kSingleExecution);
  ASSERT_NE(dfs, nullptr);
  ASSERT_NE(sim, nullptr);
  EXPECT_STREQ(dfs->name(), "dfs");
  EXPECT_STREQ(sim->name(), "single-execution");
}

}  // namespace
}  // namespace plankton
