// Zero-heap-allocation guarantee for the explorer's steady-state hot path.
//
// The acceptance bar for the incremental hot path: once an exploration has
// warmed every arena, table and cache, a full expand/apply/expand/undo
// cycle performs *zero* heap allocations, and so does a converged-state
// check (FIB, equivalence signature, policy walks). The test
// replaces global operator new/delete with counting versions, runs a
// complete exploration to reach steady state, then drives the public
// SearchModel interface directly and asserts the allocation counter does
// not move.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "pec/pec.hpp"
#include "protocols/ospf.hpp"
#include "rpvp/explorer.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace plankton {
namespace {

class TruePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "true"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// Warm the explorer with a full run(), then measure N hot-path cycles
/// through the public SearchModel interface. After run() the phase-0 state
/// is the (already explored) initial RIB of the last prepared failure set,
/// so expand() yields real moves and apply/undo traverse real transitions.
void expect_zero_alloc_cycles(const Network& net, ExploreOptions opts) {
  const PecSet pecs = compute_pecs(net);
  const auto routed = pecs.routed();
  ASSERT_FALSE(routed.empty());
  const Pec& pec = pecs.pecs[routed[0]];
  const TruePolicy policy;
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  (void)ex.run();  // warm every arena, memo and interning table

  std::vector<SearchMove> moves;
  moves.reserve(256);

  // One untimed cycle: lets lazily-grown buffers (the move vector above
  // all) reach their high-water mark before counting starts.
  SearchModel& model = ex;
  moves.clear();
  ASSERT_EQ(model.expand(0, moves, SIZE_MAX), SearchModel::Step::kBranch);
  ASSERT_FALSE(moves.empty());
  model.apply(0, moves.front());
  model.undo(0, moves.front());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int cycle = 0; cycle < 200; ++cycle) {
    moves.clear();
    const auto step = model.expand(0, moves, SIZE_MAX);
    ASSERT_EQ(step, SearchModel::Step::kBranch);
    for (std::size_t i = 0; i < moves.size(); ++i) {
      model.apply(0, moves[i]);
      model.undo(0, moves[i]);
    }
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state expand/apply/undo cycles allocated "
      << (after - before) << " times";
}

/// Follows the first move of a one-task PEC until its phase converges, then
/// counts the allocations of 200 converged-state checks: advance(0) runs
/// handle_converged (FIB rebuild, equivalence signature, policy walks) on
/// the same state each time. The first check warms the explorer's FIB,
/// walk memo and signature set and is not counted.
void expect_zero_alloc_converged_checks(const Network& net, const Pec& pec,
                                        const Policy& policy,
                                        ExploreOptions opts) {
  ASSERT_EQ(make_tasks(net, pec).size(), 1u);
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  const ExploreResult warm = ex.run();
  ASSERT_EQ(warm.verdict(), Verdict::kHolds);

  SearchModel& model = ex;
  std::vector<SearchMove> moves;
  moves.reserve(256);
  for (;;) {
    moves.clear();
    const auto step = model.expand(0, moves, SIZE_MAX);
    if (step == SearchModel::Step::kConverged) break;
    ASSERT_EQ(step, SearchModel::Step::kBranch);
    model.apply(0, moves.front());
  }
  ASSERT_EQ(model.advance(0), SearchFlow::kContinue);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int check = 0; check < 200; ++check) {
    ASSERT_EQ(model.advance(0), SearchFlow::kContinue);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "warm converged-state checks allocated " << (after - before) << " times";
}

TEST(HotPathAlloc, ConvergedStateChecksAreAllocationFree) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const PecSet pecs = compute_pecs(ft.net);
  const Pec& pec = pecs.pecs[pecs.find(ft.edge_prefixes[0].addr())];
  const LoopFreedomPolicy loop;
  // Every path from another pod crosses a core.
  const WaypointPolicy waypoint({ft.edge_at(1, 0)}, ft.cores);
  for (const bool suppress : {true, false}) {
    SCOPED_TRACE(suppress ? "suppress_equivalent on" : "suppress_equivalent off");
    ExploreOptions opts;
    opts.suppress_equivalent = suppress;
    {
      SCOPED_TRACE("loop freedom");
      expect_zero_alloc_converged_checks(ft.net, pec, loop, opts);
    }
    {
      SCOPED_TRACE("waypoint");
      expect_zero_alloc_converged_checks(ft.net, pec, waypoint, opts);
    }
  }
}

/// Counts the converged states it is shown.
class CountingPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "counting"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    ++checks;
    return true;
  }
  mutable std::uint64_t checks = 0;
};

TEST(HotPathAlloc, SpfPassIsAllocationFree) {
  // A two-prefix OSPF PEC: edge 0's prefix and its more-specific half,
  // originated at another edge. Both phases are SPF-ordered, so advance(0)
  // runs phase 1 as one pass (docs/architecture.md "SPF-ordered phases").
  // Called at each state of phase 0's path, the pass commits every member
  // and ends in a converged-state check: it probes no visited store.
  FatTreeOptions o;
  o.k = 4;
  FatTree ft = make_fat_tree(o);
  const Prefix half(ft.edge_prefixes[0].addr(),
                    static_cast<std::uint8_t>(ft.edge_prefixes[0].length() + 1));
  ft.net.device(ft.edges[1]).ospf.originated.push_back(half);
  const PecSet pecs = compute_pecs(ft.net);
  const Pec& pec = pecs.pecs[pecs.find(half.addr())];
  ASSERT_EQ(make_tasks(ft.net, pec).size(), 2u);
  ExploreOptions opts;
  opts.suppress_equivalent = false;  // every converged state is checked
  const CountingPolicy policy;
  Explorer ex(ft.net, pec, make_tasks(ft.net, pec), policy, opts);
  ASSERT_EQ(ex.run().verdict(), Verdict::kHolds);

  // Warm the step-path arenas: walk phase 0's one path and back.
  SearchModel& model = ex;
  std::vector<SearchMove> path;
  std::vector<SearchMove> moves;
  moves.reserve(256);
  for (;;) {
    moves.clear();
    const auto step = model.expand(0, moves, SIZE_MAX);
    if (step == SearchModel::Step::kConverged) break;
    ASSERT_EQ(step, SearchModel::Step::kBranch);
    ASSERT_EQ(moves.size(), 1u) << "an SPF-ordered phase never branches";
    path.push_back(moves.front());
    model.apply(0, path.back());
  }
  for (std::size_t i = path.size(); i-- > 0;) model.undo(0, path[i]);
  ASSERT_GT(path.size(), 10u);

  const std::uint64_t checks = policy.checks;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_EQ(model.advance(0), SearchFlow::kContinue);
  for (SearchMove& m : path) {
    model.apply(0, m);
    ASSERT_EQ(model.advance(0), SearchFlow::kContinue);
  }
  for (std::size_t i = path.size(); i-- > 0;) model.undo(0, path[i]);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(policy.checks - checks, path.size() + 1)
      << "the passes did not all reach a converged state";
  EXPECT_EQ(after - before, 0u)
      << path.size() + 1 << " passes allocated " << (after - before) << " times";
}

TEST(HotPathAlloc, IncrementalSpfPrepareIsAllocationFree) {
  // Every single-link failure set on AS1755, toward one backbone router's
  // loopback: the first sweep grows the process's buffers to their
  // high-water marks, the second re-prepares each set without allocating.
  const AsTopo topo = make_as_topo("AS1755");
  const NodeId origin = topo.backbone[0];
  OspfProcess proc(topo.net, topo.loopbacks[origin], {origin});
  ModelContext ctx;
  ctx.net = &topo.net;
  std::vector<FailureSet> sets(1, topo.net.topo.no_failures());
  for (LinkId l = 0; l < topo.net.topo.link_count(); ++l) {
    sets.push_back(topo.net.topo.no_failures());
    sets.back().fail(l);
  }
  std::vector<std::uint32_t> no_failure_dist;
  proc.prepare(sets.front(), ctx);
  for (NodeId n = 0; n < topo.net.topo.node_count(); ++n) {
    no_failure_dist.push_back(proc.spf_dist(n));
  }
  std::size_t moving = 0;  // sets that re-settle some node
  for (const FailureSet& f : sets) {
    proc.prepare(f, ctx);
    for (NodeId n = 0; n < no_failure_dist.size(); ++n) {
      if (proc.spf_dist(n) != no_failure_dist[n]) {
        ++moving;
        break;
      }
    }
  }
  ASSERT_GT(moving, 10u);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const FailureSet& f : sets) proc.prepare(f, ctx);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << sets.size() << " warm prepares allocated " << (after - before) << " times";
}

TEST(HotPathAlloc, OspfFatTreeSteadyStateIsAllocationFree) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  ExploreOptions opts;  // all optimizations on (ad cache + dirty set)
  expect_zero_alloc_cycles(ft.net, opts);
}

TEST(HotPathAlloc, BgpDcSteadyStateIsAllocationFree) {
  FatTreeOptions o;
  o.k = 4;
  o.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(o);
  ExploreOptions opts;
  opts.budget.max_states = 20000;  // bounded warm-up; cycles below stay warm
  expect_zero_alloc_cycles(ft.net, opts);
}

TEST(HotPathAlloc, ReferenceExpandPathIsAllocationFreeToo) {
  // The full-rescan expand (incremental_expand=false) shares the arenas;
  // it must be allocation-free as well, cache on or off.
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  for (const bool cache : {false, true}) {
    ExploreOptions opts;
    opts.incremental_expand = false;
    opts.ad_cache = cache;
    expect_zero_alloc_cycles(ft.net, opts);
  }
}

}  // namespace
}  // namespace plankton
