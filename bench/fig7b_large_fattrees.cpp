// Figure 7(b): very large fat trees on a single core — loop policy (pass and
// fail variants) over every PEC, and single-IP reachability (one PEC).
//
// Paper shape: Plankton completes networks Minesweeper cannot touch
// (N=500..2205); single-PEC policies (single-IP reachability) are orders of
// magnitude cheaper than whole-header-space policies; time and memory grow
// polynomially with N.
#include <random>

#include "bench_util.hpp"
#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "serve/serve.hpp"
#include "workload/fat_tree.hpp"

namespace {

/// `net` rendered, its `node` lines shuffled with a fixed seed, and parsed
/// back: the same tree with every device renumbered, as an operator-written
/// config would number it.
plankton::Network renumbered(const plankton::Network& net) {
  const std::string text = plankton::serve::render_config(net);
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  std::mt19937_64 rng(1);  // render_config declares every node first
  for (std::size_t i = net.topo.node_count(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng() % i]);
  }
  std::string config;
  for (const std::string& l : lines) config += l + "\n";
  return plankton::parse_network_config(config).net;
}

}  // namespace

int main() {
  using namespace plankton;
  bench::header("Figure 7(b)", "large fat trees + OSPF, 1 core");
  // k=20,24,28 -> N=500,720,980; full scale adds k=32,36,42 -> 1280,1620,2205.
  const std::vector<int> ks = bench::full_scale()
                                  ? std::vector<int>{20, 24, 28, 32, 36, 42}
                                  : std::vector<int>{12, 16, 20};

  std::printf("%-10s %-10s %16s %12s\n", "N", "policy", "time", "model MB");
  for (const bool fail_case : {false, true}) {
    for (const int k : ks) {
      FatTreeOptions o;
      o.k = k;
      o.statics = fail_case ? FatTreeOptions::CoreStatics::kBroken
                            : FatTreeOptions::CoreStatics::kMatching;
      const FatTree ft = make_fat_tree(o);
      VerifyOptions vo;
      vo.cores = 1;
      Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
      const LoopFreedomPolicy policy;
      const VerifyResult r = verifier.verify(policy);
      const bool ok = (r.verdict == Verdict::kHolds) == !fail_case;
      std::printf("N=%-8zu Loop(%s) %16s %12.2f  classes %zu (%zu translated) %s\n",
                  ft.size(), fail_case ? "Fail" : "Pass",
                  bench::time_cell(r.wall, r.budget_tripped == BudgetKind::kDeadline)
                      .c_str(),
                  bench::mb(r.total.model_bytes()), r.pec_classes,
                  r.pecs_deduped, ok ? "" : "VERDICT MISMATCH");
      bench::emit("fig7b_large_fattrees",
                  "N=" + std::to_string(ft.size()) + " loop " +
                      (fail_case ? "fail" : "pass"),
                  bench::ms(r.wall), r.total.states_explored,
                  r.total.model_bytes());
      if (!fail_case) {
        // Class-compression ablation: the same all-PEC check without batch
        // PEC verification (one native exploration per edge prefix).
        VerifyOptions ov = vo;
        ov.pec_dedup = false;
        Verifier off_verifier(ft.net, ov);
        const VerifyResult off = off_verifier.verify(policy);
        std::printf("N=%-8zu Loop(Pass, no dedup) %9s %12.2f  dedup speedup %.2fx\n",
                    ft.size(),
                    bench::time_cell(off.wall,
                                     off.budget_tripped == BudgetKind::kDeadline)
                        .c_str(),
                    bench::mb(off.total.model_bytes()),
                    bench::ms(r.wall) > 0 ? bench::ms(off.wall) / bench::ms(r.wall)
                                          : 0.0);
        bench::emit("fig7b_large_fattrees",
                    "N=" + std::to_string(ft.size()) + " loop pass dedup-off",
                    bench::ms(off.wall), off.total.states_explored,
                    off.total.model_bytes());
        // The same check on the tree with its devices renumbered: dedup
        // must still fold it into one class, so its states match the
        // "loop pass" row's.
        const Network shuffled = renumbered(ft.net);
        Verifier re_verifier(shuffled, vo);
        const VerifyResult re = re_verifier.verify(policy);
        const bool re_ok = re.verdict == Verdict::kHolds;
        std::printf("N=%-8zu Loop(Pass, renumbered) %7s %12.2f  classes %zu (%zu translated) %s\n",
                    ft.size(),
                    bench::time_cell(re.wall, re.budget_tripped == BudgetKind::kDeadline)
                        .c_str(),
                    bench::mb(re.total.model_bytes()), re.pec_classes,
                    re.pecs_deduped, re_ok ? "" : "VERDICT MISMATCH");
        bench::emit("fig7b_large_fattrees",
                    "N=" + std::to_string(ft.size()) + " loop pass renumbered",
                    bench::ms(re.wall), re.total.states_explored,
                    re.total.model_bytes());
      }
    }
  }
  for (const int k : ks) {
    FatTreeOptions o;
    o.k = k;
    const FatTree ft = make_fat_tree(o);
    VerifyOptions vo;
    vo.cores = 1;
    Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
    const ReachabilityPolicy policy({ft.edges.begin(), ft.edges.end()});
    const VerifyResult r =
        verifier.verify_address(ft.edge_prefixes.back().addr(), policy);
    std::printf("N=%-8zu SingleIP   %16s %12.2f %s\n", ft.size(),
                bench::time_cell(r.wall, r.budget_tripped == BudgetKind::kDeadline)
                    .c_str(),
                bench::mb(r.total.model_bytes()),
                r.verdict == Verdict::kHolds ? "" : "VERDICT MISMATCH");
    bench::emit("fig7b_large_fattrees", "N=" + std::to_string(ft.size()) + " singleip",
                bench::ms(r.wall), r.total.states_explored,
                r.total.model_bytes());
  }
  // The same all-PEC loop check on 8 work-stealing worker threads. On a
  // one-hardware-thread host the workers timeshare a core, so this brackets
  // threading overhead; a speedup needs a multicore host.
  std::printf("\n%-10s %-14s %16s\n", "N", "scheduler", "time");
  for (const int k : ks) {
    FatTreeOptions o;
    o.k = k;
    const FatTree ft = make_fat_tree(o);
    const LoopFreedomPolicy policy;
    VerifyOptions vo;
    vo.cores = 8;
    Verifier verifier(ft.net, bench::assert_unbudgeted(vo));
    const VerifyResult r = verifier.verify(policy);
    std::printf("N=%-8zu %-14s %16s %s\n", ft.size(), "work-stealing",
                bench::time_cell(r.wall, r.budget_tripped == BudgetKind::kDeadline)
                    .c_str(),
                r.verdict == Verdict::kHolds ? "" : "VERDICT MISMATCH");
    bench::emit("fig7b_large_fattrees",
                "N=" + std::to_string(ft.size()) + " sched=work-stealing",
                bench::ms(r.wall), r.total.states_explored,
                r.total.model_bytes());
  }

  std::printf(
      "\npaper_shape: loop checks scale polynomially to thousand-device "
      "fabrics; single-IP reachability is far cheaper than all-PEC loop "
      "checking at every N\n");
  return 0;
}
