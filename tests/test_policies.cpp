// The seven built-in policies, exercised end to end on purpose-built
// networks (each policy both passing and failing), and their spec forms
// (Policy::spec), which make_policy turns back into the same policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "serve/serve.hpp"
#include "support/figure6.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

/// Line a--b--c, c originates 10.0.0.0/24.
Network line3() {
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  const NodeId c = net.add_device("c");
  net.topo.add_link(a, b);
  net.topo.add_link(b, c);
  for (NodeId n = 0; n < 3; ++n) {
    net.device(n).ospf.enabled = true;
    net.device(n).ospf.advertise_loopback = false;
  }
  net.device(c).ospf.originated.push_back(*Prefix::parse("10.0.0.0/24"));
  return net;
}

TEST(Policies, ReachabilityPassAndFail) {
  Network net = line3();
  {
    Verifier v(net, {});
    const ReachabilityPolicy p({0});
    EXPECT_EQ(v.verify(p).verdict, Verdict::kHolds);
  }
  {
    StaticRoute sr;
    sr.dst = *Prefix::parse("10.0.0.0/24");
    sr.drop = true;
    net.device(1).statics.push_back(sr);
    Verifier v(net, {});
    const ReachabilityPolicy p({0});
    const VerifyResult r = v.verify(p);
    EXPECT_EQ(r.verdict, Verdict::kViolated);
    EXPECT_NE(r.first_violation(net.topo).find("a"), std::string::npos);
  }
}

TEST(Policies, BlackholeFreedom) {
  Network net = line3();
  {
    Verifier v(net, {});
    const BlackholeFreedomPolicy p({0, 1});
    EXPECT_EQ(v.verify(p).verdict, Verdict::kHolds);
  }
  {
    // Under one failure the line partitions: black hole appears.
    VerifyOptions vo;
    vo.explore.max_failures = 1;
    Verifier v(net, vo);
    const BlackholeFreedomPolicy p({0, 1});
    EXPECT_EQ(v.verify(p).verdict, Verdict::kViolated);
  }
}

TEST(Policies, BoundedPathLength) {
  const Network net = line3();
  Verifier v(net, {});
  const BoundedPathLengthPolicy ok({0}, 2);
  EXPECT_EQ(v.verify(ok).verdict, Verdict::kHolds);
  const BoundedPathLengthPolicy tight({0}, 1);
  EXPECT_EQ(v.verify(tight).verdict, Verdict::kViolated);
}

TEST(Policies, WaypointOnLine) {
  const Network net = line3();
  Verifier v(net, {});
  const WaypointPolicy through_b({0}, {1});
  EXPECT_EQ(v.verify(through_b).verdict, Verdict::kHolds);
  const WaypointPolicy through_a({1}, {0});  // b's path to c never crosses a
  EXPECT_EQ(v.verify(through_a).verdict, Verdict::kViolated);
}

TEST(Policies, MultipathConsistencyFailsOnDivergentEcmp) {
  // Diamond: s -> {l, r} equal cost; r black-holes via a static drop while
  // l delivers: ECMP branches disagree.
  Network net;
  const NodeId s = net.add_device("s");
  const NodeId l = net.add_device("l");
  const NodeId r = net.add_device("r");
  const NodeId d = net.add_device("d");
  net.topo.add_link(s, l, 1);
  net.topo.add_link(s, r, 1);
  net.topo.add_link(l, d, 1);
  net.topo.add_link(r, d, 1);
  for (NodeId n = 0; n < 4; ++n) {
    net.device(n).ospf.enabled = true;
    net.device(n).ospf.advertise_loopback = false;
  }
  net.device(d).ospf.originated.push_back(*Prefix::parse("10.0.0.0/24"));
  {
    Verifier v(net, {});
    const MultipathConsistencyPolicy p({s});
    EXPECT_EQ(v.verify(p).verdict, Verdict::kHolds)
        << "symmetric diamond is consistent";
  }
  {
    StaticRoute drop;
    drop.dst = *Prefix::parse("10.0.0.0/24");
    drop.drop = true;
    net.device(r).statics.push_back(drop);
    Verifier v(net, {});
    const MultipathConsistencyPolicy p({s});
    EXPECT_EQ(v.verify(p).verdict, Verdict::kViolated);
  }
}

TEST(Policies, PathConsistencyAcrossSymmetricDevices) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  // Edges of pods 1..3 are symmetric w.r.t. pod 0's first prefix.
  {
    Verifier v(ft.net, {});
    const PathConsistencyPolicy p({ft.edge_at(1, 0), ft.edge_at(2, 0)});
    EXPECT_EQ(v.verify_address(ft.edge_prefixes[0].addr(), p).verdict,
              Verdict::kHolds);
  }
  // Edge in the destination pod vs a remote pod: different path lengths.
  {
    Verifier v(ft.net, {});
    const PathConsistencyPolicy p({ft.edge_at(0, 1), ft.edge_at(2, 0)});
    EXPECT_EQ(v.verify_address(ft.edge_prefixes[0].addr(), p).verdict,
              Verdict::kViolated);
  }
}

TEST(Policies, LoopPolicyConsidersAllSources) {
  // The loop lives off the sources' paths; loop freedom must still fail.
  Network net = line3();
  const NodeId x = net.add_device("x");
  const NodeId y = net.add_device("y");
  net.topo.add_link(x, y);
  net.topo.add_link(2, x);
  net.device(x).ospf.enabled = true;
  net.device(y).ospf.enabled = true;
  StaticRoute sx;  // x and y point at each other for an unrelated prefix
  sx.dst = *Prefix::parse("99.0.0.0/8");
  sx.via_neighbor = y;
  net.device(x).statics.push_back(sx);
  StaticRoute sy;
  sy.dst = *Prefix::parse("99.0.0.0/8");
  sy.via_neighbor = x;
  net.device(y).statics.push_back(sy);
  Verifier v(net, {});
  const LoopFreedomPolicy p;
  const VerifyResult r = v.verify(p);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
}

TEST(Policies, LoopCheckFromChangedEntriesMatchesFullWalk) {
  // When the previous plane held, the loop check walks only from the
  // changed entries: the previous plane had no cycle, so every cycle of the
  // new one runs through an entry that changed. Take a random loop-free
  // plane, perturb a few entries, and check it both ways: the verdict and
  // the message must match the full check's, which names the lowest node a
  // loop is reachable from, a node that is often not a perturbed entry.
  std::mt19937_64 rng(0x100f);
  const LoopFreedomPolicy loop;
  WalkMemo memo;
  const Pec pec;
  ModelContext ctx;
  std::size_t held = 0;
  std::size_t violated = 0;
  std::size_t named_elsewhere = 0;  // the named node was not perturbed
  for (int trial = 0; trial < 5000; ++trial) {
    const std::size_t n = 2 + rng() % 10;
    Network net;
    for (std::size_t i = 0; i < n; ++i) net.add_device("r" + std::to_string(i));
    // Loop-free: a node forwards only to nodes of a higher random rank.
    std::vector<NodeId> by_rank(n);
    std::iota(by_rank.begin(), by_rank.end(), NodeId{0});
    std::shuffle(by_rank.begin(), by_rank.end(), rng);
    DataPlane dp;
    dp.entries.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      FibEntry& e = dp.entries[by_rank[r]];
      if (r + 1 == n || rng() % 4 == 0) {
        e.kind = rng() % 2 == 0 ? FwdKind::kLocal : FwdKind::kDrop;
        continue;
      }
      e.kind = FwdKind::kForward;
      for (std::size_t k = 1 + rng() % 2; k > 0; --k) {
        const NodeId next = by_rank[r + 1 + rng() % (n - r - 1)];
        if (std::find(e.nexthops.begin(), e.nexthops.end(), next) == e.nexthops.end()) {
          e.nexthops.push_back(next);
        }
      }
    }
    std::string why;
    ASSERT_TRUE(loop.check(ConvergedView{net, pec, dp, {}, ctx, memo}, why));

    std::vector<NodeId> perturbed;
    for (std::size_t k = 1 + rng() % 3; k > 0; --k) {
      const auto x = static_cast<NodeId>(rng() % n);
      if (std::find(perturbed.begin(), perturbed.end(), x) != perturbed.end()) continue;
      perturbed.push_back(x);
      FibEntry& e = dp.entries[x];
      e.nexthops.clear();
      e.kind = rng() % 4 == 0 ? FwdKind::kDrop : FwdKind::kForward;
      if (e.kind == FwdKind::kForward) e.nexthops.push_back(static_cast<NodeId>(rng() % n));
    }
    std::sort(perturbed.begin(), perturbed.end());

    std::string why_changed;
    std::string why_full;
    const bool holds_changed = loop.check(
        ConvergedView{net, pec, dp, {}, ctx, memo, perturbed, true}, why_changed);
    const bool holds_full = loop.check(
        ConvergedView{net, pec, dp, {}, ctx, memo, perturbed, false}, why_full);
    ASSERT_EQ(holds_changed, holds_full) << "trial " << trial;
    ASSERT_EQ(why_changed, why_full) << "trial " << trial;
    NodeId lowest = kNoNode;
    for (NodeId s = 0; s < n && lowest == kNoNode; ++s) {
      if (walk_from(dp, s).looped) lowest = s;
    }
    ASSERT_EQ(holds_full, lowest == kNoNode) << "trial " << trial;
    if (holds_full) {
      ++held;
      continue;
    }
    ++violated;
    EXPECT_EQ(why_full, "forwarding loop reachable from " + net.topo.name(lowest));
    if (!std::binary_search(perturbed.begin(), perturbed.end(), lowest)) {
      ++named_elsewhere;
    }
  }
  EXPECT_GT(held, 500u);
  EXPECT_GT(violated, 500u);
  EXPECT_GT(named_elsewhere, 100u);
}

TEST(Policies, ViolationCarriesTrailAndFailureSet) {
  const Network net = make_ring(6);
  VerifyOptions vo;
  vo.explore.max_failures = 2;
  Verifier v(net, vo);
  const ReachabilityPolicy p({3});
  const VerifyResult r = v.verify(p);
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  ASSERT_FALSE(r.reports.empty());
  const auto& violations = r.reports[0].result.violations;
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].failures.count(), 2u);
  EXPECT_FALSE(violations[0].trail_text.empty());
  EXPECT_NE(violations[0].trail_text.find("fail link"), std::string::npos);
}

/// Verdict plus the violation multiset, trail text included.
std::multiset<std::string> verdict_and_violations(const VerifyResult& r) {
  std::multiset<std::string> out{std::string("verdict ") +
                                 to_string(r.verdict)};
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      out.insert(rep.pec_str + "|" + std::to_string(v.failures.hash()) + "|" +
                 v.message + "|" + v.trail_text);
    }
  }
  return out;
}

TEST(Policies, SpecFormsRebuildThroughMakePolicy) {
  // Every built-in policy renders to a spec line that make_policy
  // parses back, on the rendered and re-parsed network, into a policy with
  // the same spec and the same verdict and violations, trails included.
  const testsupport::Figure6 fx;
  const ReachabilityPolicy reach({fx.r5, fx.r6});
  const LoopFreedomPolicy loop;
  const BlackholeFreedomPolicy blackhole({fx.r6});
  const BoundedPathLengthPolicy bounded({fx.r6}, 2);
  const WaypointPolicy waypoint({fx.r6}, {fx.r2, fx.r3});
  const MultipathConsistencyPolicy multipath({fx.r6});
  const PathConsistencyPolicy consistency({fx.r5, fx.r6});
  const std::pair<const Policy*, const char*> cases[] = {
      {&reach, "reach R5 R6"},
      {&loop, "loop"},
      {&blackhole, "blackhole R6"},
      {&bounded, "bounded 2 R6"},
      {&waypoint, "waypoint R2,R3 R6"},
      {&multipath, "multipath R6"},
      {&consistency, "consistency R5 R6"},
  };
  const ParsedNetwork parsed =
      parse_network_config(serve::render_config(fx.net));
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  for (const auto& [policy, spec] : cases) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(policy->spec(fx.net), spec);
    std::string error;
    const std::unique_ptr<Policy> rebuilt = make_policy(parsed.net, spec, error);
    ASSERT_NE(rebuilt, nullptr) << error;
    EXPECT_EQ(rebuilt->spec(parsed.net), spec);
    EXPECT_EQ(verdict_and_violations(Verifier(parsed.net, vo).verify(*rebuilt)),
              verdict_and_violations(Verifier(fx.net, vo).verify(*policy)));
  }
}

TEST(Policies, NodeListsTakeCommasAndSpaces) {
  // plankton_verify joins its positional arguments into one spec, so
  // `reach r1,r2` and `reach r1 r2` must name the same sources; a waypoint
  // spec names its via list first.
  const testsupport::Figure6 fx;
  const std::pair<const char*, const char*> same[] = {
      {"reach R5,R6", "reach R5 R6"},
      {"reach R5, R6", "reach R5 R6"},
      {"blackhole R5,R6", "blackhole R5 R6"},
      {"bounded 2 R5,R6", "bounded 2 R5 R6"},
      {"waypoint R2,R3 R5,R6", "waypoint R2,R3 R5 R6"},
      {"consistency R5,R6", "consistency R5 R6"},
  };
  for (const auto& [spec, canonical] : same) {
    SCOPED_TRACE(spec);
    std::string error;
    const std::unique_ptr<Policy> p = make_policy(fx.net, spec, error);
    ASSERT_NE(p, nullptr) << error;
    EXPECT_EQ(p->spec(fx.net), canonical);
  }
  std::string error;
  const auto wp = make_policy(fx.net, "waypoint R2 R6", error);
  ASSERT_NE(wp, nullptr) << error;
  ASSERT_EQ(wp->interesting().size(), 1u);
  EXPECT_EQ(wp->interesting()[0], fx.r2) << "the first token is the via list";
  ASSERT_EQ(wp->sources().size(), 1u);
  EXPECT_EQ(wp->sources()[0], fx.r6);
  for (const char* bad : {"", "reach", "reach ,", "waypoint R2", "waypoint , R6",
                          "bounded x R6", "loop R6", "reach R9", "teleport R6"}) {
    EXPECT_EQ(make_policy(fx.net, bad, error), nullptr) << bad;
  }

  // A comma is a separator, so a node name holding one has no spec form.
  const ParsedNetwork odd = parse_network_config("node a,b\nnode c\n");
  const ReachabilityPolicy reach({0, 1});
  EXPECT_EQ(reach.spec(odd.net), "");
  EXPECT_EQ(WaypointPolicy({1}, {0}).spec(odd.net), "");
  EXPECT_EQ(ReachabilityPolicy({1}).spec(odd.net), "reach c");
}

}  // namespace
}  // namespace plankton
