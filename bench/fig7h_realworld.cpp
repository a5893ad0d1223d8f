// Figure 7(h): "real-world" configurations (synthetic stand-ins reproducing
// the paper's reported traits: recursive statics, iBGP over OSPF, self-loop
// PEC dependencies) — Reachability, Bounded Path Length and Waypointing,
// with and without a single link failure, one core.
//
// Paper shape: every network verifies in milliseconds-to-seconds on one
// core; failure variants cost more than failure-free ones; recursive
// routing (present in 9 of 10 networks) is handled via the PEC dependency
// scheduler.
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/enterprise.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 7(h)", "real-world configs, 3 policies, 1 core");
  std::printf("%-12s %8s | %12s %12s | %12s %12s | %12s %12s\n", "network", "devs",
              "Reach", "Reach+f", "Bounded", "Bounded+f", "Waypoint", "Waypoint+f");

  for (const auto& info : enterprise_networks()) {
    const Enterprise ent = make_enterprise(info.name);
    const Network& net = ent.net;

    // Sources: access routers; destination: the first access subnet.
    std::vector<NodeId> sources = ent.access;
    if (sources.empty()) sources.push_back(0);
    const IpAddr dst = ent.subnets.empty() ? IpAddr(10, 1, 0, 1)
                                           : ent.subnets[0].addr();
    // Waypoints: the core layer.
    std::vector<NodeId> waypoints = ent.cores;

    auto run = [&](const Policy& policy, int k) {
      VerifyOptions vo;
      vo.cores = 1;
      vo.explore.max_failures = k;
      Verifier verifier(net, bench::assert_unbudgeted(vo));
      const VerifyResult r = verifier.verify_address(dst, policy);
      bench::emit("fig7h_realworld",
                  info.name + " " + policy.name() + " k=" + std::to_string(k),
                  bench::ms(r.wall), r.total.states_explored,
                  r.total.model_bytes());
      return bench::time_cell(r.wall,
                              r.budget_tripped == BudgetKind::kDeadline);
    };

    const ReachabilityPolicy reach(sources);
    const BoundedPathLengthPolicy bounded(sources, 8);
    const WaypointPolicy waypoint(sources, waypoints);
    std::printf("%-12s %8d | %12s %12s | %12s %12s | %12s %12s\n",
                info.name.c_str(), info.devices, run(reach, 0).c_str(),
                run(reach, 1).c_str(), run(bounded, 0).c_str(),
                run(bounded, 1).c_str(), run(waypoint, 0).c_str(),
                run(waypoint, 1).c_str());
  }
  std::printf(
      "\npaper_shape: all ten networks verify in <~seconds on one core; "
      "failure variants cost a small multiple of failure-free runs\n");
  return 0;
}
