// Perf-trajectory smoke bench: a fixed, fast (<~1 min) workload basket whose
// timed rows are written to BENCH_perf.json — the first point of the
// repo-wide performance trajectory. Every perf-affecting PR re-runs this and
// commits the refreshed JSON, so the history of {time_ms, states, bytes} per
// row is the regression record. Rows (reduced versions of the paper figures
// the hot path matters most for):
//
//   fattree_loop/K=8        fig7a: OSPF fat tree, loop policy, all PECs
//   as_failures/AS1755      fig7d: OSPF AS topology, reachability, <=1 failure
//   as_loop_failures/AS1755 the same topology under loop freedom, all PECs,
//                                  <=1 failure (the unshuffled e2e
//                                  verify_failures input): its count pins
//                                  failure relevance's skipped runs
//   bgp_dc_worstcase/K=4    fig9:  BGP DC waypoint, det-node detection off,
//                                  the uncapped interleaving explosion with
//                                  dynamic partial-order reduction on
//   fattree_loop/K=8 bfs    the BFS frontier engine on the first workload —
//                                  tracks the snapshot-restore overhead of
//                                  the frontier layer in the trajectory
//   bgp_dc_worstcase/K=4 por-off   the bgp_dc_worstcase/K=4 row with
//                                  partial-order reduction off — the
//                                  por-off / default time ratio is the DPOR
//                                  win in the trajectory (verdicts identical)
//   bgp_dc_worstcase/K=4 budget-*  the same workload under resource budgets:
//                                  budget-slack never trips (its delta vs
//                                  the bgp_dc_worstcase/K=4 row is the
//                                  governance overhead, < 2%), budget-trip
//                                  is time-to-inconclusive under a 100 ms
//                                  deadline
//
// The ad-cache/dirty-set off rows measure the same workloads with the PR-2
// hot-path optimizations disabled, so their effect is visible inside one
// run of one binary.
#include <cstring>

#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"

namespace {

using namespace plankton;

void apply_mode(VerifyOptions& vo, bool optimized) {
  vo.explore.ad_cache = optimized;
  vo.explore.incremental_expand = optimized;
}

const char* mode_tag(bool optimized) { return optimized ? "" : " hotpath-off"; }

void row(const std::string& name, const VerifyResult& r) {
  std::printf("%-36s %10.2f ms  %10llu states  %8.2f MB\n", name.c_str(),
              bench::ms(r.wall),
              static_cast<unsigned long long>(r.total.states_explored),
              bench::mb(r.total.model_bytes()));
  bench::emit("perf_smoke", name, bench::ms(r.wall), r.total.states_explored,
              r.total.model_bytes());
}

}  // namespace

int main(int argc, char** argv) {
  // Default output: BENCH_perf.json in the working directory (override with
  // PLANKTON_BENCH_JSON or argv[1]).
  if (argc > 1) {
    bench::JsonSink::instance().set_path(argv[1]);
  } else if (std::getenv("PLANKTON_BENCH_JSON") == nullptr) {
    bench::JsonSink::instance().set_path("BENCH_perf.json");
  }
  bench::header("perf_smoke", "fixed hot-path basket -> BENCH_perf.json");

  for (const bool optimized : {true, false}) {
    {
      FatTreeOptions o;
      o.k = 8;
      const FatTree ft = make_fat_tree(o);
      VerifyOptions vo;
      vo.cores = 1;
      apply_mode(vo, optimized);
      Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
      const LoopFreedomPolicy policy;
      row(std::string("fattree_loop/K=8") + mode_tag(optimized),
          verifier.verify(policy));
    }
    {
      AsTopo topo = make_as_topo("AS1755");
      NodeId ingress = topo.backbone[0];
      for (NodeId n = static_cast<NodeId>(topo.backbone.size());
           n < topo.net.topo.node_count(); ++n) {
        if (topo.net.topo.neighbors(n).size() > 1) {
          ingress = n;
          break;
        }
      }
      VerifyOptions vo;
      vo.cores = 1;
      vo.explore.max_failures = 1;
      apply_mode(vo, optimized);
      Verifier verifier(topo.net, bench::assert_unbudgeted(vo));
      const ReachabilityPolicy policy({ingress});
      row(std::string("as_failures/AS1755") + mode_tag(optimized),
          verifier.verify(policy));
    }
    {
      FatTreeOptions o;
      o.k = 4;
      o.routing = FatTreeOptions::Routing::kBgpRfc7938;
      const FatTree ft = make_fat_tree(o);
      const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
      VerifyOptions vo;
      vo.cores = 1;
      vo.explore.det_nodes_bgp = false;
      vo.explore.suppress_equivalent = false;
      apply_mode(vo, optimized);
      Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
      const VerifyResult r =
          verifier.verify_address(ft.edge_prefixes[0].addr(), policy);
      row(std::string("bgp_dc_worstcase/K=4") + mode_tag(optimized), r);
      std::printf("%-36s %10llu pruned  %10llu source sets\n",
                  "  (reduction counters)",
                  static_cast<unsigned long long>(r.total.por_pruned),
                  static_cast<unsigned long long>(r.total.por_source_sets));
    }
  }

  {
    // Loop freedom has no sources, so influence pruning stays off and
    // failure relevance skips the runs of off-DAG failures
    // (docs/architecture.md "Failure relevance").
    const AsTopo topo = make_as_topo("AS1755");
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.max_failures = 1;
    Verifier verifier(topo.net, bench::assert_unbudgeted(vo));
    const LoopFreedomPolicy policy;
    row("as_loop_failures/AS1755", verifier.verify(policy));
  }
  {
    // Batch PEC verification off: the same all-PEC fat-tree workload without
    // class dedup. The gap between this row and fattree_loop/K=8 (dedup on
    // by default) is the class-compression win in the trajectory.
    FatTreeOptions o;
    o.k = 8;
    const FatTree ft = make_fat_tree(o);
    VerifyOptions vo;
    vo.cores = 1;
    vo.pec_dedup = false;
    Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
    const LoopFreedomPolicy policy;
    row("fattree_loop/K=8 dedup-off", verifier.verify(policy));
  }
  {
    // One frontier-engine row: same workload as the first basket entry, BFS
    // order, so the trajectory tracks the frontier layer's restore overhead.
    FatTreeOptions o;
    o.k = 8;
    const FatTree ft = make_fat_tree(o);
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.engine_kind = SearchEngineKind::kBfs;
    Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
    const LoopFreedomPolicy policy;
    row("fattree_loop/K=8 bfs", verifier.verify(policy));
  }

  {
    // The DPOR pair's off arm: the bgp_dc_worstcase/K=4 row with por off.
    // This is the interleaving explosion the sleep/source-set reduction
    // targets; both rows must report the same verdict, and the time ratio is
    // the reduction factor tracked in the trajectory.
    FatTreeOptions o;
    o.k = 4;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.det_nodes_bgp = false;
    vo.explore.suppress_equivalent = false;
    vo.explore.por = false;
    Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
    row("bgp_dc_worstcase/K=4 por-off",
        verifier.verify_address(ft.edge_prefixes[0].addr(), policy));
  }
  {
    // Resource-governance rows (checker/budget.hpp), deliberately budgeted
    // and labelled so (assert_unbudgeted guards every unlabelled row):
    //   budget-slack — the fig9 worst-case workload under budgets wide
    //                  enough to never trip. Its delta vs the plain
    //                  bgp_dc_worstcase row is the governance overhead of
    //                  the amortized budget gate (every 256 checks); the
    //                  claim in docs/architecture.md is < 2%.
    //   budget-trip  — the same workload with a 100 ms deadline: the row's
    //                  time is the time-to-inconclusive (how fast a tripped
    //                  run hands back control), not an exploration time.
    FatTreeOptions o;
    o.k = 4;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
    {
      // Best-of-3 for both arms, interleaved: the governance overhead is a
      // counter increment plus a clock read every 256 budget checks, far
      // below run-to-run scheduler noise on this workload, so single-shot
      // deltas would swing either way. Minimum wall per arm isolates it.
      const auto run_once = [&](bool budgeted) {
        VerifyOptions vo;
        vo.cores = 1;
        vo.explore.det_nodes_bgp = false;
        vo.explore.suppress_equivalent = false;
        if (budgeted) {
          vo.explore.budget.deadline = std::chrono::minutes(10);
          vo.explore.budget.max_states = 100000000;
          vo.explore.budget.max_bytes = std::size_t{4} << 30;
        }
        Verifier verifier(ft.net, vo);
        return verifier.verify_address(ft.edge_prefixes[0].addr(), policy);
      };
      VerifyResult best_plain = run_once(false);
      VerifyResult best_slack = run_once(true);
      for (int i = 0; i < 2; ++i) {
        VerifyResult p = run_once(false);
        if (p.wall < best_plain.wall) best_plain = p;
        VerifyResult s = run_once(true);
        if (s.wall < best_slack.wall) best_slack = s;
      }
      row("bgp_dc_worstcase/K=4 budget-slack", best_slack);
      std::printf("  (governance overhead vs unbudgeted, best of 3: %+.2f%%)\n",
                  100.0 * (bench::ms(best_slack.wall) / bench::ms(best_plain.wall) - 1.0));
      if (best_slack.verdict != Verdict::kHolds) {
        std::printf("  WARNING: slack budget tripped (%s) — overhead row "
                    "is measuring a partial run\n",
                    to_string(best_slack.budget_tripped));
      }
    }
    {
      VerifyOptions vo;
      vo.cores = 1;
      vo.explore.det_nodes_bgp = false;
      vo.explore.suppress_equivalent = false;
      vo.explore.budget.deadline = std::chrono::milliseconds(100);
      Verifier verifier(ft.net, vo);
      const VerifyResult r =
          verifier.verify_address(ft.edge_prefixes[0].addr(), policy);
      row("bgp_dc_worstcase/K=4 budget-trip", r);
      std::printf("  (verdict %s, tripped budget: %s)\n",
                  to_string(r.verdict), to_string(r.budget_tripped));
    }
  }
  {
    // The fig9 worst-case single monster PEC under the BFS frontier engine,
    // capped (explore.budget.max_states) so the row tracks frontier snapshot
    // and replay cost at bounded time. POR is DFS-only, so BFS explores the
    // unreduced interleavings up to the cap.
    FatTreeOptions o;
    o.k = 4;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.det_nodes_bgp = false;
    vo.explore.engine_kind = SearchEngineKind::kBfs;
    vo.explore.budget.max_states = 50000;
    Verifier verifier(ft.net, vo);
    row("bgp_dc_worstcase/K=4 bfs capped",
        verifier.verify_address(ft.edge_prefixes[0].addr(), policy));
  }

  std::printf("\nwrote perf trajectory records (bench=perf_smoke)\n");
  return 0;
}
