// Engine matrix bench: the three search engines over a fixed workload
// basket, one timed row per (workload, engine), all reported through the
// PLANKTON_BENCH_JSON emitter (like every bench) so engine-order cost can be
// tracked as part of the perf trajectory.
//
// DFS and BFS explore the same state set by construction (the differential
// harness proves it); what this bench measures is the *price of order*: DFS
// pays nothing for movement (one apply/undo per tree edge), BFS pays path
// replay per pop plus frontier memory, in exchange for the shortest
// counterexample trails. Rows print states, transitions (apply count — the
// replay overhead shows up here), and the pending-frontier high-water mark.
//
//   fattree_loop/K=4      OSPF fat tree, loop-freedom policy, all PECs
//   as_failures/AS1755    OSPF AS topology, reachability, <=1 link failure
//   bgp_dc/K=4            RFC 7938 eBGP DC, waypoint, det-node BGP off
//                         (the Fig. 9 worst-case hot-path churn, capped)
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/as_topo.hpp"
#include "workload/fat_tree.hpp"

namespace {

using namespace plankton;

constexpr SearchEngineKind kEngines[] = {
    SearchEngineKind::kDfs,
    SearchEngineKind::kBfs,
    SearchEngineKind::kSingleExecution,
};

void apply_engine(VerifyOptions& vo, SearchEngineKind kind) {
  // The matrix measures engine order/replay overhead over one fixed state
  // set. POR reduces DFS's set alone (every other engine explores the
  // unreduced tree), so it is pinned off here.
  vo.explore.por = false;
  vo.explore.engine_kind = kind;
}

void row(const std::string& workload, SearchEngineKind kind,
         const VerifyResult& r) {
  const std::string name = workload + "/" + to_string(kind);
  std::printf("%-34s %10.2f ms  %9llu states  %10llu trans  %7llu frontier\n",
              name.c_str(), bench::ms(r.wall),
              static_cast<unsigned long long>(r.total.states_stored),
              static_cast<unsigned long long>(r.total.states_explored),
              static_cast<unsigned long long>(r.total.frontier_peak));
  bench::emit("fig_engine_matrix", name, bench::ms(r.wall),
              r.total.states_stored, r.total.model_bytes());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) bench::JsonSink::instance().set_path(argv[1]);
  bench::header("fig_engine_matrix",
                "search-engine matrix: DFS vs BFS vs simulation");
  const int k = bench::full_scale() ? 6 : 4;

  for (const SearchEngineKind kind : kEngines) {
    FatTreeOptions o;
    o.k = k;
    const FatTree ft = make_fat_tree(o);
    VerifyOptions vo;
    vo.cores = 1;
    apply_engine(vo, kind);
    Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
    const LoopFreedomPolicy policy;
    row("fattree_loop/K=" + std::to_string(k), kind, verifier.verify(policy));
  }

  for (const SearchEngineKind kind : kEngines) {
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
    apply_engine(vo, kind);
    Verifier verifier(topo.net, bench::assert_unbudgeted(vo));
    const ReachabilityPolicy policy({ingress});
    row("as_failures/AS1755", kind, verifier.verify(policy));
  }

  for (const SearchEngineKind kind : kEngines) {
    FatTreeOptions o;
    o.k = 4;
    o.routing = FatTreeOptions::Routing::kBgpRfc7938;
    const FatTree ft = make_fat_tree(o);
    const WaypointPolicy policy({ft.edges.back()}, ft.aggs);
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore.det_nodes_bgp = false;
    vo.explore.suppress_equivalent = false;
    vo.explore.budget.max_states = 50000;
    apply_engine(vo, kind);
    Verifier verifier(ft.net, vo);
    row("bgp_dc/K=4", kind,
        verifier.verify_address(ft.edge_prefixes[0].addr(), policy));
  }

  std::printf("\npaper_shape: on uncapped rows DFS and BFS visit identical\n"
              "state counts; BFS trades transitions (path replay) and\n"
              "frontier memory for the shortest counterexample trails; the\n"
              "state-capped bgp_dc rows truncate at different frontiers by\n"
              "design.\n");
  return 0;
}
