// Figure 7(a): fat trees with OSPF + static routes at the cores, loop
// policy, Plankton on 1..n cores vs the Minesweeper-style baseline.
//
// Paper shape: Plankton beats Minesweeper at every size even on one core,
// by several orders of magnitude on larger fabrics; Plankton time shrinks
// with added cores; Plankton memory stays below the baseline's.
#include "baselines/smt/encoder.hpp"
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/fat_tree.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 7(a)", "fat trees + OSPF, loop policy, multi-core");

  const std::vector<int> ks = bench::full_scale()
                                  ? std::vector<int>{10, 12, 14}
                                  : std::vector<int>{4, 6, 8};
  const std::vector<int> cores = {1, 2, 4, 8};

  for (const bool fail_case : {false, true}) {
    for (const int k : ks) {
      FatTreeOptions o;
      o.k = k;
      o.statics = fail_case ? FatTreeOptions::CoreStatics::kBroken
                            : FatTreeOptions::CoreStatics::kMatching;
      const FatTree ft = make_fat_tree(o);
      std::printf("\nK=%d (%zu devices) — %s case\n", k, ft.size(),
                  fail_case ? "Fail" : "Pass");

      smt::MsOptions mo;
      mo.budget = bench::baseline_budget();
      smt::MsVerifier ms(ft.net, mo);
      const smt::MsResult mr = ms.check_loop();
      std::printf("  %-24s %14s  mem %8.2f MB  %s\n", "Minesweeper (1+ cores)",
                  bench::time_cell(mr.elapsed, mr.timed_out).c_str(),
                  bench::mb(mr.bytes),
                  mr.holds == !fail_case || mr.timed_out ? "" : "VERDICT MISMATCH");
      bench::emit("fig7a_fattree_loop",
                  "K=" + std::to_string(k) + (fail_case ? " fail" : " pass") +
                      " minesweeper",
                  bench::ms(mr.elapsed), 0, mr.bytes);

      double dedup_ms = 0;
      for (const int c : cores) {
        VerifyOptions vo;
        vo.cores = c;
        Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
        const LoopFreedomPolicy policy;
        const VerifyResult r = verifier.verify(policy);
        const bool expected = !fail_case;
        char classes[48] = "";
        if (c == 1) {
          dedup_ms = bench::ms(r.wall);
          std::snprintf(classes, sizeof(classes), "classes %zu (%zu translated)",
                        r.pec_classes, r.pecs_deduped);
        }
        std::printf("  Plankton (%2d core%s)      %14s  mem %8.2f MB  %s %s\n", c,
                    c == 1 ? ") " : "s)", bench::time_cell(r.wall, false).c_str(),
                    bench::mb(r.total.model_bytes()), classes,
                    (r.verdict == Verdict::kHolds) == expected
                        ? ""
                        : "VERDICT MISMATCH");
        bench::emit("fig7a_fattree_loop",
                    "K=" + std::to_string(k) + (fail_case ? " fail" : " pass") +
                        " cores=" + std::to_string(c),
                    bench::ms(r.wall), r.total.states_explored,
                    r.total.model_bytes());
      }
      {
        // Batch PEC verification off: the dedup-on gap at 1 core is the
        // class-compression win (pass case: all edge PECs share one class).
        VerifyOptions vo;
        vo.cores = 1;
        vo.pec_dedup = false;
        Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
        const LoopFreedomPolicy policy;
        const VerifyResult r = verifier.verify(policy);
        std::printf("  Plankton (no dedup)      %14s  mem %8.2f MB  dedup speedup %.2fx\n",
                    bench::time_cell(r.wall, false).c_str(),
                    bench::mb(r.total.model_bytes()),
                    dedup_ms > 0 ? bench::ms(r.wall) / dedup_ms : 0.0);
        bench::emit("fig7a_fattree_loop",
                    "K=" + std::to_string(k) + (fail_case ? " fail" : " pass") +
                        " cores=1 dedup-off",
                    bench::ms(r.wall), r.total.states_explored,
                    r.total.model_bytes());
      }
    }
  }
  std::printf(
      "\npaper_shape: Plankton faster than Minesweeper at every K even on 1 "
      "core; gap grows with K; fail cases terminate at the first "
      "counterexample\n");
  return 0;
}
