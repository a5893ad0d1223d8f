// Figure 7(c): RFC 7938 BGP data centers with a waypoint misconfiguration —
// the high-non-determinism experiment. Age-based tie-breaking makes the
// chosen path depend on advertisement order; Plankton enumerates convergence
// orders (policy-based pruning collapses the equivalent ones) and finds a
// violating event sequence.
//
// Paper shape: worst-case time stays under seconds even at hundreds of
// devices because policy-based pruning + deterministic-node detection prune
// the irrelevant interleavings; a violation is found in every run.
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "netbase/hash.hpp"
#include "workload/fat_tree.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 7(c)", "fat trees + BGP (RFC 7938), waypoint policy, 1 core");
  const std::vector<int> ks = bench::full_scale()
                                  ? std::vector<int>{4, 6, 8, 10, 12, 14, 16}
                                  : std::vector<int>{4, 6, 8, 10};
  std::printf("%-10s %12s %12s %12s %12s  %s\n", "devices", "max time", "avg time",
              "max MB", "avg MB", "violations");

  for (const int k : ks) {
    FatTreeOptions o;
    o.k = k;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);

    double max_ms = 0, sum_ms = 0, max_mb = 0, sum_mb = 0;
    int violations = 0;
    const int trials = 5;
    std::uint64_t seed = 0xc0ffee + k;
    for (int trial = 0; trial < trials; ++trial) {
      // Random waypoint subset of the aggregation layer; the policy is
      // between two edge switches, as in the paper ("the path between two
      // edge switches should pass through one of the waypoints").
      std::vector<NodeId> waypoints;
      for (std::size_t a = 0; a < ft.aggs.size(); ++a) {
        seed = hash_mix(seed + a);
        if ((seed & 3) == 0) waypoints.push_back(ft.aggs[a]);
      }
      if (waypoints.empty()) waypoints.push_back(ft.aggs[0]);
      seed = hash_mix(seed);
      const NodeId src = ft.edges[1 + seed % (ft.edges.size() - 1)];
      const WaypointPolicy policy({src}, waypoints);

      VerifyOptions vo;
      vo.cores = 1;
      Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
      const VerifyResult r =
          verifier.verify_address(ft.edge_prefixes[0].addr(), policy);
      if (r.verdict == Verdict::kViolated) ++violations;
      const double t = bench::ms(r.wall);
      const double m = bench::mb(r.total.model_bytes());
      max_ms = std::max(max_ms, t);
      sum_ms += t;
      max_mb = std::max(max_mb, m);
      sum_mb += m;
    }
    std::printf("%-10zu %9.2f ms %9.2f ms %9.2f MB %9.2f MB  %d/%d\n", ft.size(),
                max_ms, sum_ms / trials, max_mb, sum_mb / trials, violations,
                trials);
    bench::emit("fig7c_bgp_dc_waypoint", "N=" + std::to_string(ft.size()) + " max",
                max_ms, 0, static_cast<std::uint64_t>(max_mb * 1e6));
    bench::emit("fig7c_bgp_dc_waypoint", "N=" + std::to_string(ft.size()) + " avg",
                sum_ms / trials, 0, 0);
  }
  // Whole-header-space pass variant: reachability from one edge switch over
  // *every* edge-prefix PEC of the same RFC 7938 fabric. Fixing the source
  // still leaves the automorphisms that permute the remaining pods, so batch
  // PEC verification collapses same-pod edge PECs into shared classes — the
  // class-ratio column. (The violating waypoint trials above stop at the
  // first counterexample, where there is nothing for dedup to share.)
  std::printf("\nall-PEC reachability, batch PEC verification on vs off\n");
  std::printf("%-10s %12s %12s %10s %10s\n", "devices", "dedup on", "dedup off",
              "classes", "speedup");
  for (const int k : ks) {
    if (k > 8 && !bench::full_scale()) break;  // whole space: k^2/2 PECs
    FatTreeOptions o;
    o.k = k;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    const ReachabilityPolicy policy({ft.edges[1]});
    double wall[2] = {0, 0};
    std::size_t classes = 0, pecs = 0;
    for (const bool dedup : {true, false}) {
      VerifyOptions vo;
      vo.cores = 1;
      vo.pec_dedup = dedup;
      Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
      const VerifyResult r = verifier.verify(policy);
      wall[dedup ? 0 : 1] = bench::ms(r.wall);
      if (dedup) {
        classes = r.pec_classes;
        pecs = r.pecs_verified;
      }
      bench::emit("fig7c_bgp_dc_waypoint",
                  "N=" + std::to_string(ft.size()) + " allpec" +
                      (dedup ? "" : " dedup-off"),
                  bench::ms(r.wall), r.total.states_explored,
                  r.total.model_bytes());
    }
    std::printf("%-10zu %9.2f ms %9.2f ms %4zu/%-5zu %9.2fx\n", ft.size(),
                wall[0], wall[1], classes, pecs,
                wall[0] > 0 ? wall[1] / wall[0] : 0.0);
  }
  std::printf(
      "\npaper_shape: worst-case time stays ~seconds as device count grows; "
      "violating event sequences found (misconfigured fabric bypasses "
      "waypoints under some advertisement orders)\n");
  return 0;
}
