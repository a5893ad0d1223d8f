// ISP failure audit (the paper's §5 RocketFuel experiments, Fig. 7d).
//
// Loads a synthetic AS topology (deterministic stand-in for RocketFuel),
// picks an ingress PoP, and checks that every destination prefix in the AS
// stays reachable from the ingress under any single link failure — reporting
// which failure breaks which destination when the policy does not hold.
#include <cstdio>
#include <string>

#include "core/verifier.hpp"
#include "workload/as_topo.hpp"

int main(int argc, char** argv) {
  using namespace plankton;
  const std::string as_name = argc > 1 ? argv[1] : "AS3967";
  AsTopo topo = make_as_topo(as_name);
  std::printf("%s: %zu devices, %zu links, OSPF with weighted links\n",
              as_name.c_str(), topo.net.topo.node_count(),
              topo.net.topo.link_count());

  // Ingress: first PoP with more than one incident link (as in the paper).
  NodeId ingress = kNoNode;
  for (NodeId n = static_cast<NodeId>(topo.backbone.size());
       n < topo.net.topo.node_count(); ++n) {
    if (topo.net.topo.neighbors(n).size() > 1) {
      ingress = n;
      break;
    }
  }
  if (ingress == kNoNode) ingress = topo.backbone[0];
  std::printf("ingress: %s\n\n", topo.net.topo.name(ingress).c_str());

  VerifyOptions vo;
  vo.explore.max_failures = 1;
  vo.explore.find_all_violations = false;
  vo.cores = 4;
  Verifier verifier(topo.net, vo);
  const ReachabilityPolicy policy({ingress});
  const VerifyResult r = verifier.verify(policy);

  std::printf("destination PECs audited: %zu\n", r.pecs_verified);
  std::printf("failure scenarios explored: %llu\n",
              static_cast<unsigned long long>(r.total.failure_sets));
  std::printf("all destinations reachable under any 1 failure: %s\n",
              r.verdict == Verdict::kHolds ? "YES" : "NO");
  if (r.verdict == Verdict::kViolated) {
    std::printf("  first violation: %s\n", r.first_violation(topo.net.topo).c_str());
  }
  std::printf("wall time: %.2f ms, model memory: %.2f MB\n",
              static_cast<double>(r.wall.count()) / 1e6,
              static_cast<double>(r.total.model_bytes()) / 1e6);
  return 0;
}
