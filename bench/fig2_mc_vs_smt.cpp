// Figure 2: two ways to compute shortest paths — explicit-state model
// checking (direct protocol execution) vs a general-purpose constraint
// solver (SMT-style, bit-blasted into CNF).
//
// Paper shape: the model checker is orders of magnitude faster (≈12,000× at
// N=180) and the gap widens with network size.
#include "baselines/smt/encoder.hpp"
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/fat_tree.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 2", "shortest paths: model checker vs SMT, fat trees");
  std::printf("%-8s %-8s %16s %16s %10s\n", "N", "k", "model checker", "SMT",
              "speedup");

  const std::vector<int> ks =
      bench::full_scale() ? std::vector<int>{4, 6, 8, 12}   // N=20,45,80,180
                          : std::vector<int>{4, 6, 8, 12};  // same: cheap enough
  for (const int k : ks) {
    FatTreeOptions o;
    o.k = k;
    const FatTree ft = make_fat_tree(o);
    const NodeId origin = ft.edges[0];

    // Model checker side: one deterministic RPVP execution of the OSPF
    // control plane for the origin's prefix (what SPIN does for the paper's
    // Bellman-Ford model).
    bench::WallTimer mc_timer;
    Verifier verifier(ft.net, {});
    const LoopFreedomPolicy policy;  // forces full convergence of the PEC
    const VerifyResult mc = verifier.verify_address(ft.edge_prefixes[0].addr(), policy);
    const auto mc_time = mc_timer.elapsed();

    // SMT side: the same single-source shortest-path problem as constraints.
    smt::MsOptions mo;
    mo.budget = bench::baseline_budget();
    smt::MsVerifier ms(ft.net, mo);
    std::vector<std::uint32_t> costs;
    bench::WallTimer smt_timer;
    const smt::MsResult sr = ms.solve_shortest_paths(origin, costs);
    const auto smt_time = smt_timer.elapsed();

    // Cross-check the two computations agree (when the solver finished).
    if (!sr.timed_out && mc.verdict == Verdict::kHolds) {
      const std::vector<NodeId> origins{origin};
      const auto expected =
          shortest_path_costs(ft.net.topo, origins, ft.net.topo.no_failures());
      for (std::size_t i = 0; i < costs.size(); ++i) {
        if (costs[i] != expected[i]) {
          std::printf("DISAGREEMENT at node %zu!\n", i);
          return 1;
        }
      }
    }
    const double speedup = sr.timed_out
                               ? 0.0
                               : static_cast<double>(smt_time.count()) /
                                     static_cast<double>(std::max<long long>(
                                         mc_time.count(), 1));
    std::printf("N=%-6zu k=%-6d %16s %16s %9.0fx\n", ft.size(), k,
                bench::time_cell(mc_time, false).c_str(),
                bench::time_cell(smt_time, sr.timed_out).c_str(), speedup);
  }
  std::printf(
      "\npaper_shape: model checker >=100x faster than SMT at every size and "
      "the ratio grows with N (paper: ~12000x at N=180)\n");
  return 0;
}
