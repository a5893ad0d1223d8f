// iBGP over OSPF: dependency-aware scheduling in action (paper §3.2, Fig. 5).
//
// An AS runs OSPF internally; border routers form an iBGP mesh carrying an
// externally-learned prefix. Packets to that prefix resolve recursively
// through the IGP's loopback routes, so the loopback PECs must be verified
// before the iBGP PEC. This example prints the PEC dependency structure and
// then verifies delivery of the external prefix end to end.
#include <cstdio>

#include "core/verifier.hpp"
#include "workload/as_topo.hpp"

int main() {
  using namespace plankton;
  AsTopo topo = make_as_topo("example-as", 36);
  const IbgpOverlay overlay = add_ibgp_mesh(topo, 6);
  std::printf("AS with %zu devices; iBGP mesh of %zu speakers; external prefix %s\n",
              topo.net.topo.node_count(), overlay.speakers.size(),
              overlay.external.str().c_str());

  Verifier verifier(topo.net, {});
  const PecDependencies& deps = verifier.deps();
  std::size_t dep_edges = 0;
  std::size_t max_scc = 0;
  for (const auto& d : deps.depends_on) dep_edges += d.size();
  for (const auto& scc : deps.sccs) max_scc = std::max(max_scc, scc.size());
  std::printf("PECs: %zu, dependency edges: %zu, SCCs: %zu (largest: %zu)\n",
              verifier.pecs().pecs.size(), dep_edges, deps.sccs.size(), max_scc);

  const PecId external_pec = verifier.pecs().find(overlay.external.addr());
  std::printf("external PEC depends on %zu loopback PECs\n\n",
              deps.depends_on[external_pec].size());

  const ReachabilityPolicy policy(
      {overlay.speakers.begin(), overlay.speakers.end()});
  const VerifyResult r = verifier.verify_address(overlay.external.addr(), policy);
  std::printf("external prefix delivered from every speaker: %s\n",
              r.verdict == Verdict::kHolds ? "YES" : "NO");
  if (r.verdict == Verdict::kViolated) {
    std::printf("  %s\n", r.first_violation(topo.net.topo).c_str());
  }
  std::printf("PECs verified: %zu (+%zu upstream support runs)\n",
              r.pecs_verified, r.pecs_support);
  std::printf("wall: %.2f ms\n", static_cast<double>(r.wall.count()) / 1e6);

  // Same audit under a single link failure: failure choices are coordinated
  // between the loopback PECs and the iBGP PEC (§3.2).
  VerifyOptions vo;
  vo.explore.max_failures = 1;
  Verifier v2(topo.net, vo);
  const VerifyResult r2 = v2.verify_address(overlay.external.addr(), policy);
  std::printf("\nunder any single link failure: %s (wall %.2f ms)\n",
              r2.verdict == Verdict::kHolds ? "STILL DELIVERED" : "VIOLATED",
              static_cast<double>(r2.wall.count()) / 1e6);
  if (r2.verdict == Verdict::kViolated) {
    std::printf("  %s\n", r2.first_violation(topo.net.topo).c_str());
  }
  return 0;
}
