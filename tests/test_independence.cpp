// The DPOR commutativity oracle (engine/independence.hpp) and its soundness
// against the real protocol processes.
//
// The oracle's claim is structural: a move at node n touches rib[n] and reads
// only rib[p] for session peers p, so moves at non-peer nodes commute. The
// unit tests pin the relation's algebra (symmetric, reflexive on declared
// transitions, conservative fallback); the fuzz executes *both orders* of
// every oracle-independent enabled pair on random instances through the real
// Explorer and compares the state keys both orders reach — an unsound
// independence verdict shows up as a Zobrist key mismatch or a changed
// candidate set.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/independence.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
#include "support/random_net.hpp"

namespace plankton {
namespace {

using testsupport::RandomInstance;
using testsupport::make_random_instance;

TEST(IndependenceOracle, FreshRelationIsVacuouslyIndependent) {
  IndependenceOracle o;
  o.reset(2, 70);  // spans a word boundary
  EXPECT_EQ(o.phase_count(), 2u);
  EXPECT_EQ(o.node_count(), 70u);
  EXPECT_EQ(o.words(), 2u);
  for (NodeId a = 0; a < 70; ++a) {
    for (NodeId b = 0; b < 70; ++b) {
      EXPECT_TRUE(o.independent(0, a, b));
    }
  }
}

TEST(IndependenceOracle, DeclaredTransitionsConflictSymmetrically) {
  IndependenceOracle o;
  o.reset(1, 70);
  const NodeId reads2[] = {3, 65};
  const NodeId reads3[] = {2};
  o.add_transition(0, 2, reads2);
  o.add_transition(0, 3, reads3);
  o.add_transition(0, 65, std::span<const NodeId>{});

  // Reflexive on every declared transition (write/write on the own entry).
  for (const NodeId n : {NodeId{2}, NodeId{3}, NodeId{65}}) {
    EXPECT_TRUE(o.dependent(0, n, n));
  }
  // Write/read conflicts accumulate in both directions.
  EXPECT_TRUE(o.dependent(0, 2, 3));
  EXPECT_TRUE(o.dependent(0, 3, 2));
  EXPECT_TRUE(o.dependent(0, 2, 65));
  EXPECT_TRUE(o.dependent(0, 65, 2));
  // 3 and 65 never touch each other's entries.
  EXPECT_TRUE(o.independent(0, 3, 65));
  EXPECT_TRUE(o.independent(0, 65, 3));
  // Symmetry over the full matrix.
  for (NodeId a = 0; a < 70; ++a) {
    for (NodeId b = 0; b < 70; ++b) {
      EXPECT_EQ(o.dependent(0, a, b), o.dependent(0, b, a))
          << "asymmetric at (" << a << ", " << b << ")";
    }
  }
}

TEST(IndependenceOracle, SleepChildMaskAlgebra) {
  // child = (sleep ∪ prior) ∖ dep, bit-exact across word boundaries.
  std::uint64_t sleep[2] = {0x5, 0x1};
  std::uint64_t prior[2] = {0x2, 0x4};
  std::uint64_t dep[2] = {0x4, 0x1};
  std::uint64_t child[2] = {~0ull, ~0ull};
  sleep_child(child, sleep, prior, dep, 2);
  EXPECT_EQ(child[0], (0x5ull | 0x2ull) & ~0x4ull);
  EXPECT_EQ(child[1], (0x1ull | 0x4ull) & ~0x1ull);
  EXPECT_TRUE(mask_test(child, 0));
  EXPECT_FALSE(mask_test(child, 2));
  mask_set(child, 2);
  EXPECT_TRUE(mask_test(child, 2));
}

class TruePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "true"; }
  [[nodiscard]] bool check(const ConvergedView&, std::string&) const override {
    return true;
  }
};

/// Executes both orders of every oracle-independent pair of enabled moves on
/// the instance's first routed PEC, walking a few levels of the real move
/// tree. POR and the §4 move-pruning optimizations are off so expand()
/// returns the unfiltered enabled set — the fuzz tests the oracle, not the
/// reduction built on it.
void fuzz_instance_pairs(const RandomInstance& inst, std::uint64_t& pairs) {
  const PecSet pecs = compute_pecs(inst.net);
  const auto routed = pecs.routed();
  if (routed.empty()) return;
  const Pec& pec = pecs.pecs[routed[0]];
  std::vector<PrefixTask> tasks = make_tasks(inst.net, pec);
  if (tasks.size() != 1) return;  // keep the walk single-phase
  const RoutingProcess* proc = tasks[0].process.get();

  ExploreOptions opts = ExploreOptions::naive();
  opts.merge_updates = inst.explore.merge_updates;
  opts.max_failures = 0;      // the walk probes the failure-free tree
  opts.budget.max_states = 20000;    // bounded warm-up run
  const TruePolicy policy;
  Explorer ex(inst.net, pec, std::move(tasks), policy, opts);
  (void)ex.run();  // prepare() the process and park at the phase-0 root

  // The oracle under test, built exactly as the explorer builds its own:
  // node-granularity footprints from the *prepared* process.
  IndependenceOracle oracle;
  oracle.reset(1, inst.net.topo.node_count());
  for (const NodeId n : proc->members()) {
    oracle.add_transition(0, n, proc->peers(n));
  }

  SearchModel& model = ex;
  std::vector<SearchMove> moves;
  std::vector<SearchMove> after_first;
  // Applies `first` then `second` for real and returns the state key they
  // reach, restoring the state it started from. After `first`, `second`
  // must still be enabled with the same route: `first` did not disturb its
  // candidates.
  const auto key_after_pair = [&](SearchMove first, const SearchMove& second,
                                  std::uint64_t& key) {
    model.apply(0, first);
    after_first.clear();
    ASSERT_EQ(model.expand(0, after_first, SIZE_MAX), SearchModel::Step::kBranch)
        << "independent move " << first.node << " emptied the enabled set";
    const auto it = std::find_if(
        after_first.begin(), after_first.end(), [&](const SearchMove& m) {
          return m.node == second.node && m.route == second.route;
        });
    ASSERT_NE(it, after_first.end())
        << "move at " << first.node << " changed node " << second.node
        << "'s candidates despite independence";
    SearchMove then = *it;
    model.apply(0, then);
    key = ex.state_key(0);
    model.undo(0, then);
    model.undo(0, first);
  };
  // Iterative walk down the leftmost path, testing all pairs per level.
  for (int depth = 0; depth < 4; ++depth) {
    moves.clear();
    if (model.expand(0, moves, SIZE_MAX) != SearchModel::Step::kBranch) break;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      for (std::size_t j = i + 1; j < moves.size(); ++j) {
        const SearchMove& a = moves[i];
        const SearchMove& b = moves[j];
        if (a.node == b.node) continue;  // same-entry moves never commute
        if (oracle.dependent(0, a.node, b.node)) continue;
        std::uint64_t key_ab = 0;
        std::uint64_t key_ba = 0;
        key_after_pair(a, b, key_ab);
        if (::testing::Test::HasFatalFailure()) return;
        key_after_pair(b, a, key_ba);
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_EQ(key_ab, key_ba)
            << "orders " << a.node << "·" << b.node << " and " << b.node << "·"
            << a.node << " reached different states";
        ++pairs;
      }
    }
    // Descend along the first move and test the next level's pairs.
    SearchMove down = moves.front();
    model.apply(0, down);
  }
}

TEST(IndependenceOracle, IndependentPairsCommuteOnRealProcesses) {
  std::uint64_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const RandomInstance inst = make_random_instance(seed);
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind + ")");
    fuzz_instance_pairs(inst, pairs);
  }
  // The corpus must actually produce independent enabled pairs, or the fuzz
  // is vacuous.
  std::printf("commuting pairs executed both ways: %llu\n",
              static_cast<unsigned long long>(pairs));
  EXPECT_GT(pairs, 100u);
}

}  // namespace
}  // namespace plankton
