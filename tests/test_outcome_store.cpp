// Dedicated coverage for sched/outcome_store.*: concurrent writers and
// eviction — plus the Verifier's evict-after-last-dependent integration.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "sched/outcome_store.hpp"
#include "workload/enterprise.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

class TruePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "true"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// Real converged outcomes for the routed PEC of a 5-ring under ≤1 failure —
/// several distinct failure sets, data planes, and IGP cost vectors.
std::vector<PecOutcome> ring_outcomes(const Network& net, const PecSet& pecs) {
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  ExploreOptions opts;
  opts.max_failures = 1;
  opts.record_outcomes = true;
  opts.find_all_violations = true;
  const TruePolicy policy;
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  ExploreResult r = ex.run();
  EXPECT_GT(r.outcomes.size(), 1u);
  return std::move(r.outcomes);
}

TEST(OutcomeStoreConcurrency, ParallelWritersAndReaders) {
  const Network net = make_ring(5);
  const PecSet pecs = compute_pecs(net);
  OutcomeStore store(net, pecs);
  const std::vector<PecOutcome> base = ring_outcomes(net, pecs);

  constexpr int kWriters = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const auto pec = static_cast<PecId>(w);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<PecOutcome> mine = base;
        for (PecOutcome& o : mine) {
          o.upstream_hash = static_cast<std::uint64_t>(w);  // writer tag
        }
        store.put(pec, std::move(mine));
        const auto got = store.get(pec);
        if (got.empty() || got.front().upstream_hash != static_cast<std::uint64_t>(w)) {
          mismatches.fetch_add(1);
        }
        if (round % 8 == 0) store.evict(pec);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "a writer observed another writer's (or torn) data under its key";
}

TEST(OutcomeStoreEviction, EvictReleasesStorage) {
  const Network net = make_ring(5);
  const PecSet pecs = compute_pecs(net);
  OutcomeStore store(net, pecs);
  EXPECT_EQ(store.bytes(), 0u);

  store.put(3, ring_outcomes(net, pecs));
  EXPECT_TRUE(store.has(3));
  const std::size_t occupied = store.bytes();
  EXPECT_GT(occupied, 0u);

  // combos() on the stored outcomes still works, then eviction empties the
  // store: has() false, bytes back to zero, combos empty (the "dependency
  // has no outcome" signal).
  const std::vector<PecId> deps{3};
  // (PecId 3 is an arbitrary key here; combos matches by failure set only.)
  store.evict(3);
  EXPECT_FALSE(store.has(3));
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_TRUE(store.combos(deps, net.topo.no_failures()).empty());

  store.evict(3);  // double-evict is a no-op
  EXPECT_FALSE(store.has(3));
}

TEST(OutcomeStoreEviction, VerifierWithDependenciesStaysCorrect) {
  // The Verifier now evicts each PEC's outcomes after its last dependent
  // completes. The enterprise workloads exercise recursive-static dependency
  // chains; verdicts and per-PEC results must be unaffected, serial and
  // parallel.
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyResult results[2];
  for (const int cores : {1, 4}) {
    VerifyOptions vo;
    vo.cores = cores;
    vo.explore.find_all_violations = true;
    // Address-targeted verification runs the dependency closure as support
    // PECs — exactly the put → combos → evict lifecycle.
    results[cores == 1 ? 0 : 1] =
        Verifier(ent.net, vo).verify_address(IpAddr(10, 200, 0, 1), policy);
  }
  EXPECT_EQ(results[0].verdict, results[1].verdict);
  EXPECT_EQ(results[0].pecs_verified, results[1].pecs_verified);
  EXPECT_EQ(results[0].pecs_support, results[1].pecs_support);
  EXPECT_EQ(results[0].total.states_explored, results[1].total.states_explored);
  EXPECT_GT(results[0].pecs_support, 0u) << "workload must exercise dependencies";
}

}  // namespace
}  // namespace plankton
