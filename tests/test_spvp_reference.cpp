// Theorem 1 in executable form: RPVP (as explored by the optimized checker)
// reaches exactly the converged states of the extended SPVP message-passing
// reference model — plus cross-validation of the two BGP advertisement
// transformation implementations.
#include <gtest/gtest.h>
#include <pthread.h>

#include <random>
#include <set>

#include "pec/pec.hpp"
#include "protocols/bgp.hpp"
#include "protocols/bgp_common.hpp"
#include "protocols/spvp.hpp"
#include "rpvp/explorer.hpp"
#include "support/random_net.hpp"

namespace plankton {
namespace {

/// Policy that records each converged state's per-node best paths.
class CollectorPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "collector"; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string&) const override {
    spvp::ConvergedState cs(view.net.topo.node_count());
    for (NodeId n = 0; n < view.net.topo.node_count(); ++n) {
      const RouteId r = view.ribs[0].routes[n];
      if (r != kNoRoute) {
        cs[n] = view.ctx.paths.to_vector(view.ctx.routes.get(r).path);
      }
    }
    collected.insert(std::move(cs));
    return true;
  }
  [[nodiscard]] bool supports_equivalence() const override { return false; }

  mutable std::set<spvp::ConvergedState> collected;
};

std::set<spvp::ConvergedState> rpvp_converged(const Network& net) {
  const PecSet pecs = compute_pecs(net);
  const Pec& pec = pecs.pecs[pecs.routed()[0]];
  ExploreOptions opts;
  opts.find_all_violations = true;
  opts.suppress_equivalent = false;
  const CollectorPolicy policy;
  Explorer ex(net, pec, make_tasks(net, pec), policy, opts);
  const ExploreResult r = ex.run();
  EXPECT_EQ(r.budget_tripped, BudgetKind::kNone);
  return std::move(policy.collected);
}

Network tiny_bgp(std::mt19937& rng, int n, int extra_links, bool random_lp) {
  Network net;
  for (int i = 0; i < n; ++i) {
    const NodeId id = net.add_device("r" + std::to_string(i));
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 65000 + static_cast<std::uint32_t>(i);
  }
  auto session = [&net](NodeId a, NodeId b) {
    if (net.device(a).bgp->session_with(b) != nullptr) return;
    net.topo.add_link(a, b);
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  };
  for (int i = 1; i < n; ++i) {
    session(static_cast<NodeId>(i), static_cast<NodeId>(rng() % static_cast<unsigned>(i)));
  }
  for (int e = 0; e < extra_links; ++e) {
    const NodeId a = rng() % n;
    const NodeId b = rng() % n;
    if (a != b) session(a, b);
  }
  net.device(0).bgp->originated.push_back(*Prefix::parse("10.0.0.0/16"));
  if (random_lp) {
    for (NodeId v = 1; v < static_cast<NodeId>(n); ++v) {
      for (auto& s : net.device(v).bgp->sessions) {
        if (rng() % 2 == 0) {
          RouteMapClause clause;
          clause.action.set_local_pref = 50 + 50 * (rng() % 4);
          s.import.clauses.push_back(clause);
        }
      }
    }
  }
  return net;
}

class SpvpVsRpvp : public ::testing::TestWithParam<int> {};

TEST_P(SpvpVsRpvp, ConvergedSetsMatch) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u);
  for (int iter = 0; iter < 4; ++iter) {
    const Network net =
        tiny_bgp(rng, 3 + static_cast<int>(rng() % 2), static_cast<int>(rng() % 2),
                 /*random_lp=*/true);
    const std::vector<NodeId> origins{0};
    const spvp::SpvpResult spvp_result =
        spvp::explore_spvp(net, *Prefix::parse("10.0.0.0/16"), origins, 500000);
    if (spvp_result.state_limit_hit) continue;  // too big to enumerate, skip
    const auto rpvp_result = rpvp_converged(net);
    EXPECT_EQ(spvp_result.converged, rpvp_result)
        << "seed " << GetParam() << " iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpvpVsRpvp, ::testing::Range(1, 9));

TEST(SpvpReference, DisagreeGadgetHasTwoStates) {
  Network net;
  for (int i = 0; i < 3; ++i) {
    const NodeId id = net.add_device("r" + std::to_string(i));
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 100 + static_cast<std::uint32_t>(i);
  }
  auto session = [&net](NodeId a, NodeId b) {
    net.topo.add_link(a, b);
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  };
  session(0, 1);
  session(0, 2);
  session(1, 2);
  net.device(0).bgp->originated.push_back(*Prefix::parse("10.0.0.0/16"));
  RouteMapClause prefer;
  prefer.action.set_local_pref = 200;
  net.device(1).bgp->session_with(2)->import.clauses.push_back(prefer);
  net.device(2).bgp->session_with(1)->import.clauses.push_back(prefer);

  const std::vector<NodeId> origins{0};
  const auto r = spvp::explore_spvp(net, *Prefix::parse("10.0.0.0/16"), origins);
  ASSERT_FALSE(r.state_limit_hit);
  EXPECT_EQ(r.converged.size(), 2u);
  EXPECT_EQ(r.converged, rpvp_converged(net));
}

/// Runs `fn` on a thread with a `stack_bytes` call stack.
template <typename Fn>
void run_on_stack(std::size_t stack_bytes, Fn fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  const auto body = [](void* arg) -> void* {
    (*static_cast<Fn*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, body, &fn), 0);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
}

TEST(SpvpReference, DeepExecutionsDoNotOverflowTheStack) {
  // random_net seed 784 is a pure eBGP instance whose first execution is
  // thousands of deliveries deep before anything repeats. The explorer
  // walks it with an explicit stack, so a 256 KiB call stack suffices for
  // any state cap. A walk that recursed once per state took about 0.6 KB of
  // stack per state in a Release build and crashed here within 500 states.
  const testsupport::RandomInstance inst = testsupport::make_random_instance(784);
  ASSERT_TRUE(inst.spvp_eligible);
  constexpr std::uint64_t kCap = 5000;
  spvp::SpvpResult r;
  run_on_stack(256 << 10, [&] {
    r = spvp::explore_spvp(inst.net, inst.bgp_prefix, inst.bgp_origins, kCap);
  });
  EXPECT_TRUE(r.state_limit_hit);
  EXPECT_EQ(r.states_explored, kCap + 1);
  EXPECT_TRUE(r.maybe_divergent);
}

/// The two advertisement-transformation implementations (hot-path interned
/// vs reference value-based) must agree on random inputs.
TEST(BgpTransform, AdapterMatchesReference) {
  std::mt19937 rng(808);
  for (int iter = 0; iter < 40; ++iter) {
    const Network net = tiny_bgp(rng, 4, 2, /*random_lp=*/true);
    const Prefix prefix = *Prefix::parse("10.0.0.0/16");
    const std::vector<NodeId> origins{0};
    BgpProcess process(net, prefix, origins);
    ModelContext ctx;
    ctx.net = &net;
    process.prepare(net.topo.no_failures(), ctx);

    // Build a random held route at node p: a short path toward the origin.
    for (NodeId p = 0; p < net.topo.node_count(); ++p) {
      for (const auto& s : net.device(p).bgp->sessions) {
        const NodeId n = s.peer;
        BgpAdvert held;  // p's current best: direct route from the origin
        if (p == 0) {
          held.egress = 0;
        } else {
          held.path = {0};
          held.as_path_len = 1;
          held.local_pref = 100 + 50 * (rng() % 3);
          held.egress = p;
        }
        // Reference.
        const auto expected = bgp_transform(net, prefix, p, n, held, nullptr);
        // Adapter: intern the held route, run advertised(), expand.
        Route held_route;
        held_route.path = held.path.empty()
                              ? kEmptyPath
                              : ctx.paths.cons(held.path[0], kEmptyPath);
        held_route.local_pref = held.local_pref;
        held_route.as_path_len = held.as_path_len;
        held_route.egress = held.egress;
        const RouteId held_id = ctx.routes.intern(std::move(held_route));
        const RouteId got = process.advertised(p, n, held_id, ctx);
        if (!expected.has_value()) {
          EXPECT_EQ(got, kNoRoute) << "p=" << p << " n=" << n;
          continue;
        }
        ASSERT_NE(got, kNoRoute) << "p=" << p << " n=" << n;
        const Route& r = ctx.routes.get(got);
        EXPECT_EQ(r.local_pref, expected->local_pref);
        EXPECT_EQ(r.as_path_len, expected->as_path_len);
        EXPECT_EQ(r.communities, expected->communities);
        EXPECT_EQ(ctx.paths.to_vector(r.path), expected->path);
      }
    }
  }
}

}  // namespace
}  // namespace plankton
