// Figure 7(e): iBGP over OSPF on the AS topologies — the PEC-dependency
// experiment. Packets to the externally-announced prefix resolve through
// loopback routes, so Plankton's dependency-aware scheduler runs the
// loopback PECs first; Minesweeper must model n+1 copies of the network.
//
// Paper shape: multiple orders of magnitude in Plankton's favor; the
// baseline times out on the larger ASes (paper Fig. 7(e) shows 4 of 6
// timeouts).
#include "baselines/smt/encoder.hpp"
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/as_topo.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 7(e)", "iBGP over OSPF on AS topologies, reachability");
  const std::vector<std::string> ases =
      bench::full_scale()
          ? std::vector<std::string>{"AS1221", "AS1239", "AS1755",
                                     "AS3257", "AS3967", "AS6461"}
          : std::vector<std::string>{"AS3967", "AS1755"};
  const std::vector<int> cores = {1, 4};

  for (const auto& name : ases) {
    AsTopo topo = make_as_topo(name);
    const IbgpOverlay overlay = add_ibgp_mesh(topo);
    std::printf("\n%s (%zu devices, full iBGP mesh, %zu borders)\n", name.c_str(),
                topo.net.topo.node_count(), overlay.borders.size());

    smt::MsOptions mo;
    mo.budget = bench::baseline_budget();
    smt::MsVerifier ms(topo.net, mo);
    const smt::MsResult mr = ms.check_ibgp_reachability(
        overlay.speakers, overlay.borders);
    std::printf("  %-24s %14s  mem %8.2f MB  (n+1-copies encoding: %llu vars)\n",
                "Minesweeper (1+ cores)",
                bench::time_cell(mr.elapsed, mr.timed_out).c_str(),
                bench::mb(mr.bytes), static_cast<unsigned long long>(mr.vars));

    for (const int c : cores) {
      VerifyOptions vo;
      vo.cores = c;
      Verifier verifier(topo.net, bench::assert_unbudgeted(vo));
      const ReachabilityPolicy policy(
          {overlay.speakers.begin(), overlay.speakers.end()});
      const VerifyResult r = verifier.verify_address(overlay.external.addr(), policy);
      std::printf(
          "  Plankton (%2d core%s)      %14s  mem %8.2f MB  holds=%s "
          "(%zu upstream PECs)\n",
          c, c == 1 ? ") " : "s)",
          bench::time_cell(r.wall, r.budget_tripped == BudgetKind::kDeadline)
              .c_str(),
          bench::mb(r.total.model_bytes()),
          r.verdict == Verdict::kHolds ? "yes" : "no",
          r.pecs_support);
      bench::emit("fig7e_ibgp", name + " cores=" + std::to_string(c),
                  bench::ms(r.wall), r.total.states_explored,
                  r.total.model_bytes());
    }
  }
  std::printf(
      "\npaper_shape: dependency-aware scheduling keeps the problem linear in "
      "N while the baseline's n+1 network copies blow up (timeouts on larger "
      "ASes)\n");
  return 0;
}
