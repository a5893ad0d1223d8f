// Figure 9: the effect of bitstate hashing (Bloom-filter visited set) on
// memory usage.
//
// Paper shape: bitstate hashing cuts visited-set memory by ~2-3x on the
// BGP data-center and AS fault-tolerance workloads, at a small coverage
// risk (the paper reports >99.9% coverage; verdicts agree in practice).
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"

namespace {

using namespace plankton;

/// Runs both visited-set modes. When `state_cap` > 0 the exploration is cut
/// at the same state count in both modes so the memory comparison is
/// apples-to-apples on big state spaces (verdicts are then not meaningful).
void run_case(const char* label, const Network& net, const Policy& policy,
              IpAddr addr, const VerifyOptions& base, std::uint64_t state_cap) {
  bool verdict[2] = {false, false};
  double visited_mb[2] = {0, 0};
  double time_ms[2] = {0, 0};
  std::uint64_t states[2] = {0, 0};
  for (const bool bitstate : {false, true}) {
    VerifyOptions vo = base;
    // POR only runs under the exact backend (a Bloom false positive would
    // keep a state asleep); pin it off so the memory comparison stays
    // apples-to-apples over the same explored set.
    vo.explore.por = false;
    vo.explore.visited =
        bitstate ? VisitedKind::kBitstate : VisitedKind::kExact;
    vo.explore.bloom_bits = std::size_t{1} << 22;
    vo.explore.budget.max_states = state_cap;
    Verifier verifier(net, vo);
    const VerifyResult r = verifier.verify_address(addr, policy);
    verdict[bitstate ? 1 : 0] = r.verdict != Verdict::kViolated;
    visited_mb[bitstate ? 1 : 0] = bench::mb(r.total.bytes_visited);
    time_ms[bitstate ? 1 : 0] = bench::ms(r.wall);
    states[bitstate ? 1 : 0] = r.total.states_stored;
    // `states` is states_explored in every bench's records (fig9's printed
    // table shows states_stored, which bitstate mode legitimately shrinks).
    bench::emit("fig9_bitstate",
                std::string(label) + (bitstate ? " bitstate" : " exact"),
                bench::ms(r.wall), r.total.states_explored,
                r.total.bytes_visited);
  }
  std::printf("%-46s %10.2f MB %10.2f MB  %6.2fx  %s\n", label, visited_mb[0],
              visited_mb[1],
              visited_mb[1] > 0 ? visited_mb[0] / visited_mb[1] : 0.0,
              state_cap != 0          ? "(capped run)"
              : verdict[0] == verdict[1] ? "verdicts agree"
                                         : "VERDICTS DIFFER (coverage loss)");
  std::printf("%-46s %10.2f ms %10.2f ms   (%llu / %llu states)\n", "",
              time_ms[0], time_ms[1], static_cast<unsigned long long>(states[0]),
              static_cast<unsigned long long>(states[1]));
}

}  // namespace

int main() {
  bench::header("Figure 9", "bitstate hashing: exact visited set vs Bloom filter");
  std::printf("%-46s %13s %13s %8s\n", "experiment", "no bitstate", "bitstate",
              "ratio");

  // Large state spaces: the BGP DC waypoint exploration with BGP det-node
  // detection disabled (the paper's worst-case convergence enumeration),
  // identical exploration in both modes via a shared state cap.
  for (const int k : {4, bench::full_scale() ? 8 : 6}) {
    FatTreeOptions o;
    o.k = k;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
    VerifyOptions base;
    base.cores = 1;
    base.explore.det_nodes_bgp = false;
    base.explore.suppress_equivalent = false;
    const std::string label =
        std::to_string(ft.size()) + " node BGP DC waypoint (worst case)";
    run_case(label.c_str(), ft.net, policy, ft.edge_prefixes[0].addr(), base,
             400000);
  }

  // Uncapped agreement check: fault tolerance on AS topologies — bitstate
  // coverage in practice does not change the verdict (paper: >99.9%).
  for (const char* as_name : {"AS1221", "AS3967"}) {
    AsTopo topo = make_as_topo(as_name);
    const ReachabilityPolicy policy({topo.backbone[0]});
    VerifyOptions base;
    base.cores = 1;
    base.explore.max_failures = 1;
    const std::string label = std::string(as_name) + " fault tolerance (1 core)";
    run_case(label.c_str(), topo.net, policy, topo.loopbacks.back().addr(), base,
             0);
  }

  std::printf(
      "\npaper_shape: bitstate hashing cuts visited-set memory by a large "
      "factor on state-heavy runs (paper: 202 MB -> 67 MB on the 180-node "
      "DC) and leaves verdicts unchanged on the uncapped runs\n");
  return 0;
}
