// Quickstart: parse a configuration, verify policies, inspect results.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The network: a small dual-core enterprise pod. r1/r2 are cores, r3/r4 are
// access routers. r4 originates a server subnet into OSPF; r3 carries a
// recursive static route for a legacy prefix pointing at r2's loopback.
#include <cstdio>
#include <string>

#include "config/parser.hpp"
#include "core/verifier.hpp"

namespace {

constexpr const char* kConfig = R"(
# devices
node r1 loopback 1.1.1.1
node r2 loopback 2.2.2.2
node r3 loopback 3.3.3.3
node r4 loopback 4.4.4.4

# physical links (IGP costs)
link r1 r2 cost 1
link r1 r3 cost 10
link r1 r4 cost 10
link r2 r3 cost 10
link r2 r4 cost 10

# OSPF everywhere; r4 originates the server subnet
ospf r1 enable
ospf r2 enable
ospf r3 enable
ospf r4 originate 10.20.0.0/24

# legacy prefix reached via r2 (recursive static: next hop is a loopback)
static r3 192.168.7.0/24 via-ip 2.2.2.2
ospf r2 originate 192.168.7.0/24
)";

void report(const char* what, const plankton::VerifyResult& r,
            const plankton::Network& net) {
  std::printf("%-34s %s", what,
              r.verdict == plankton::Verdict::kHolds ? "HOLDS" : "VIOLATED");
  std::printf("  [%zu/%zu PECs checked, %llu converged states, %.2f ms]\n",
              r.pecs_verified, r.pecs_total,
              static_cast<unsigned long long>(r.total.converged_states),
              static_cast<double>(r.wall.count()) / 1e6);
  if (r.verdict == plankton::Verdict::kViolated) {
    std::printf("    -> %s\n", r.first_violation(net.topo).c_str());
  }
}

}  // namespace

int main() {
  using namespace plankton;
  ParsedNetwork parsed = parse_network_config(kConfig);
  Network& net = parsed.net;

  const auto problems = net.validate();
  for (const auto& p : problems) std::printf("config warning: %s\n", p.c_str());

  VerifyOptions opts;
  opts.explore.max_failures = 1;  // environment: at most one link failure
  opts.cores = 2;
  Verifier verifier(net, opts);

  std::printf("PECs computed: %zu (%zu routed)\n", verifier.pecs().pecs.size(),
              verifier.pecs().routed().size());

  // 1. Every router reaches the server subnet, even under any 1 failure.
  std::vector<NodeId> all;
  for (NodeId n = 0; n < net.topo.node_count(); ++n) all.push_back(n);
  const ReachabilityPolicy reach(all);
  report("reachability (k=1)",
         verifier.verify_address(IpAddr(10, 20, 0, 5), reach), net);

  // 2. The recursive static route on r3 delivers, even under any 1 failure.
  const ReachabilityPolicy legacy({*net.find_device("r3")});
  report("legacy prefix via recursive static",
         verifier.verify_address(IpAddr(192, 168, 7, 1), legacy), net);

  // 3. No forwarding loops anywhere in the header space.
  const LoopFreedomPolicy loops;
  report("loop freedom (k=1)", verifier.verify(loops), net);

  // 4. Paths to the server subnet stay within one hop — this FAILS (r3 needs
  //    two hops), demonstrating counterexample trails.
  const BoundedPathLengthPolicy bounded(all, 1);
  const VerifyResult r = verifier.verify_address(IpAddr(10, 20, 0, 5), bounded);
  report("bounded path length <= 1 (k=1)", r, net);
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      std::printf("\ncounterexample trail (PEC %s):\n%s", rep.pec_str.c_str(),
                  v.trail_text.c_str());
    }
  }
  return 0;
}
