// Data-center BGP waypoint audit (the paper's §5 "very high degree of
// non-determinism" scenario, Fig. 7c).
//
// An RFC 7938 fabric runs eBGP on every link with one private ASN per
// device. The operator intends all inter-rack traffic to cross one of a set
// of monitoring aggregation switches, but multipath is disabled and no route
// maps steer the routes: with age-based tie-breaking, whether traffic
// crosses a waypoint depends on the order advertisements arrive. Plankton
// enumerates the convergence orders and produces a violating event sequence.
#include <cstdio>

#include "core/verifier.hpp"
#include "workload/fat_tree.hpp"

int main() {
  using namespace plankton;
  FatTreeOptions opts;
  opts.k = 4;
  opts.routing = FatTreeOptions::Routing::kBgpRfc7938;
  const FatTree ft = make_fat_tree(opts);
  std::printf("RFC 7938 fabric: k=%d, %zu devices, %zu links, eBGP everywhere\n",
              ft.k, ft.net.topo.node_count(), ft.net.topo.link_count());

  // Monitoring waypoints: one aggregation switch per pod (deliberately not
  // all of them — the misconfigured fabric can route around them).
  std::vector<NodeId> waypoints;
  for (int pod = 0; pod < ft.k; ++pod) waypoints.push_back(ft.agg_at(pod, 0));
  std::printf("waypoints:");
  for (const NodeId w : waypoints) std::printf(" %s", ft.net.topo.name(w).c_str());
  std::printf("\n\n");

  // Traffic from every other edge switch to rack 0-0's prefix must cross a
  // waypoint.
  std::vector<NodeId> sources;
  for (std::size_t i = 1; i < ft.edges.size(); ++i) sources.push_back(ft.edges[i]);
  const WaypointPolicy policy(sources, waypoints);

  VerifyOptions vo;
  vo.cores = 2;
  Verifier verifier(ft.net, vo);
  const VerifyResult r = verifier.verify_address(ft.edge_prefixes[0].addr(), policy);

  std::printf("policy 'all paths to %s cross a waypoint': %s\n",
              ft.edge_prefixes[0].str().c_str(),
              r.verdict == Verdict::kHolds ? "HOLDS" : "VIOLATED");
  std::printf("converged states checked: %llu (suppressed as equivalent: %llu)\n",
              static_cast<unsigned long long>(r.total.policy_checks),
              static_cast<unsigned long long>(r.total.suppressed_checks));
  std::printf("deterministic steps: %llu, branch points: %llu, wall: %.2f ms\n\n",
              static_cast<unsigned long long>(r.total.det_steps),
              static_cast<unsigned long long>(r.total.nondet_branches),
              static_cast<double>(r.wall.count()) / 1e6);

  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      std::printf("violating convergence order (%s):\n%s\n", v.message.c_str(),
                  v.trail_text.c_str());
      return 0;  // one counterexample is enough for the demo
    }
  }
  return 0;
}
