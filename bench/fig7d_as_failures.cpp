// Figure 7(d): AS topologies (RocketFuel stand-ins) with OSPF, reachability
// of every destination prefix from a random ingress under any single link
// failure — Plankton multi-core vs the Minesweeper-style baseline.
//
// Paper shape: Plankton wins on both time and memory on every topology;
// adding cores helps until a violation is found in the first batch of PECs;
// both tools find a violation in each AS.
#include "baselines/smt/encoder.hpp"
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/as_topo.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 7(d)", "AS topologies + OSPF + 1 failure, reachability");
  const std::vector<std::string> ases =
      bench::full_scale()
          ? std::vector<std::string>{"AS1221", "AS1239", "AS1755",
                                     "AS3257", "AS3967", "AS6461"}
          : std::vector<std::string>{"AS1755", "AS3967", "AS1221"};
  const std::vector<int> cores = {1, 2, 4, 8};

  for (const auto& name : ases) {
    AsTopo topo = make_as_topo(name);
    // Ingress: first dual-homed PoP (as in the paper: random ingress with
    // more than one incident link).
    NodeId ingress = topo.backbone[0];
    for (NodeId n = static_cast<NodeId>(topo.backbone.size());
         n < topo.net.topo.node_count(); ++n) {
      if (topo.net.topo.neighbors(n).size() > 1) {
        ingress = n;
        break;
      }
    }
    std::printf("\n%s (%zu devices, %zu links), ingress %s\n", name.c_str(),
                topo.net.topo.node_count(), topo.net.topo.link_count(),
                topo.net.topo.name(ingress).c_str());

    smt::MsOptions mo;
    mo.max_failures = 1;
    mo.budget = bench::baseline_budget();
    smt::MsVerifier ms(topo.net, mo);
    const smt::MsResult mr = ms.check_reachability(ingress);
    std::printf("  %-24s %14s  mem %8.2f MB  holds=%s\n", "Minesweeper (1+ cores)",
                bench::time_cell(mr.elapsed, mr.timed_out).c_str(),
                bench::mb(mr.bytes), mr.timed_out ? "?" : mr.holds ? "yes" : "no");
    bench::emit("fig7d_as_failures", name + " minesweeper", bench::ms(mr.elapsed),
                0, mr.bytes);

    for (const int c : cores) {
      VerifyOptions vo;
      vo.cores = c;
      vo.explore.max_failures = 1;
      Verifier verifier(topo.net, bench::assert_unbudgeted(vo));
      const ReachabilityPolicy policy({ingress});
      const VerifyResult r = verifier.verify(policy);
      std::printf("  Plankton (%2d core%s)      %14s  mem %8.2f MB  holds=%s\n", c,
                  c == 1 ? ") " : "s)",
                  bench::time_cell(r.wall,
                                   r.budget_tripped == BudgetKind::kDeadline)
                      .c_str(),
                  bench::mb(r.total.model_bytes()),
                  r.verdict == Verdict::kHolds ? "yes" : "no");
      bench::emit("fig7d_as_failures", name + " cores=" + std::to_string(c),
                  bench::ms(r.wall), r.total.states_explored,
                  r.total.model_bytes());
    }
  }
  std::printf(
      "\npaper_shape: Plankton consistently faster and smaller than "
      "Minesweeper; both report the same verdict per AS (violations exist "
      "for single-homed PoPs)\n");
  return 0;
}
