// Figure 7(i): real-world configs II, III, IV — Loop, Multipath Consistency
// and Path Consistency policies, with and without a single link failure.
//
// Paper shape: the consistency policies (which inspect every node / the
// control plane itself) cost more than source-scoped policies but stay in
// seconds; memory is stable across policies.
#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "workload/enterprise.hpp"

int main() {
  using namespace plankton;
  bench::header("Figure 7(i)", "real-world configs, consistency policies");
  std::printf("%-10s %-24s %-8s %12s %12s\n", "network", "policy", "failures",
              "memory", "time");

  for (const char* name : {"II", "III", "IV"}) {
    const Enterprise ent = make_enterprise(name);
    const Network& net = ent.net;
    // Path consistency group: the (behaviorally symmetric) core routers.
    const PathConsistencyPolicy path_consistency(ent.cores);
    const LoopFreedomPolicy loop;
    const MultipathConsistencyPolicy multipath;

    const std::vector<std::pair<const Policy*, const char*>> policies = {
        {&loop, "Loop"},
        {&multipath, "Multipath Consistency"},
        {&path_consistency, "Path Consistency"},
    };
    for (const auto& [policy, pname] : policies) {
      for (const int k : {0, 1}) {
        VerifyOptions vo;
        vo.cores = 4;
        vo.explore.max_failures = k;
        Verifier verifier(net, bench::assert_unbudgeted(vo));
        const VerifyResult r = verifier.verify(*policy);
        std::printf("%-10s %-24s <=%-6d %9.2f MB %12s\n", name, pname, k,
                    bench::mb(r.total.model_bytes()),
                    bench::time_cell(r.wall, r.budget_tripped ==
                                                 BudgetKind::kDeadline)
                        .c_str());
        bench::emit("fig7i_consistency",
                    std::string(name) + " " + pname + " k=" + std::to_string(k),
                    bench::ms(r.wall), r.total.states_explored,
                    r.total.model_bytes());
      }
    }
  }
  std::printf(
      "\npaper_shape: consistency policies verify real configs in seconds; "
      "adding one failure costs a small multiple; memory stays flat across "
      "policies\n");
  return 0;
}
