// plankton_verify: command-line configuration verifier.
//
//   plankton_verify <config-file> <policy> [options]
//
// Policies (the make_policy grammar of policy/policy.hpp, shared with
// plankton_client; node lists are separated by spaces or commas):
//   reach <src>...                  every source delivers (all ECMP branches)
//   loop                            no forwarding loop anywhere
//   blackhole [<src>...]            no source traffic hits a drop
//   bounded <limit> <src>...        all paths within <limit> hops
//   waypoint <via>[,<via>...] <src>...
//                                   all paths cross one of the waypoints
//   multipath [<src>...]            all ECMP branches share one fate
//   consistency <node>...           the group's routes and paths agree
//
// Options:
//   --failures <k>     verify under at most k link failures (default 0)
//   --cores <n>        worker threads, n >= 1 (default 1)
//   --address <ip>     verify only the PEC containing <ip> (default: all)
//   --no-pec-dedup     disable batch PEC verification (exploring one
//                      representative per isomorphic PEC class; on by
//                      default, verdicts identical either way)
//   --no-por           disable dynamic partial-order reduction (sleep +
//                      source sets; on by default under --engine dfs, the
//                      only engine that runs it). POR is known to lose
//                      converged states on some inputs, so it can report a
//                      hold that the unreduced search refutes: --no-por is
//                      the reference
//   --all-violations   keep searching after the first counterexample
//   --trails           print counterexample event traces
//   --visited <kind>   visited store: exact (default) | bitstate (Bloom
//                      filter; no run over it is a proof)
//   --engine <e>       exploration strategy: dfs (default) | bfs (shortest
//                      counterexample trails; explores the unreduced move
//                      tree, as --no-por does) | single (single-execution
//                      simulation)
//   --simulation       follow one execution path (Batfish-style; may miss
//                      order-dependent violations, so no violation found is
//                      INCONCLUSIVE); alias for --engine single
//   --deadline-ms <t>  whole-run wall-clock budget; tripping it yields the
//                      INCONCLUSIVE verdict (exit 2), never a spurious hold
//   --budget-states <n> cap stored states per PEC exploration
//   --budget-bytes <n>  approximate model-memory cap per PEC exploration
//
// Every numeric flag takes a plain decimal integer in its range; anything
// else (empty, a sign where none fits, trailing characters, overflow) is a
// usage error.
//
// Exit code: 0 = policy holds (exhaustive), 1 = violated,
//            2 = inconclusive (budget tripped / bitstate store /
//                --simulation or --engine single / approximated cyclic SCC;
//                no violation found but the search was not a proof),
//            3 = usage/config error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "netbase/parse_int.hpp"

namespace {

using namespace plankton;

int usage() {
  std::fprintf(stderr,
               "usage: plankton_verify <config> <policy> [args] [--failures k] "
               "[--cores n] [--address ip] [--no-pec-dedup] "
               "[--no-por] [--all-violations] "
               "[--trails] "
               "[--visited exact|bitstate] "
               "[--engine dfs|bfs|single] [--simulation] "
               "[--deadline-ms t] [--budget-states n] [--budget-bytes n]\n"
               "policies: reach <src>... | loop | blackhole [<src>...] | "
               "bounded <limit> <src>... | "
               "waypoint <via>[,<via>...] <src>... | multipath [<src>...] | "
               "consistency <node>...\n"
               "node lists take spaces or commas\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 3;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  try {
    ParsedNetwork parsed = parse_network_config(buffer.str());
    Network& net = parsed.net;
    for (const auto& warning : net.validate()) {
      std::fprintf(stderr, "config warning: %s\n", warning.c_str());
    }

    // Positional arguments are the policy spec; the rest are options.
    std::string spec;
    VerifyOptions opts;
    std::optional<IpAddr> address;
    bool trails = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--failures" && i + 1 < argc) {
        if (!parse_int(argv[++i], opts.explore.max_failures, 0)) return usage();
      } else if (arg == "--cores" && i + 1 < argc) {
        if (!parse_int(argv[++i], opts.cores, 1)) return usage();
      } else if (arg == "--address" && i + 1 < argc) {
        address = IpAddr::parse(argv[++i]);
        if (!address) throw std::runtime_error("bad --address");
      } else if (arg == "--no-pec-dedup") {
        opts.pec_dedup = false;
      } else if (arg == "--no-por") {
        opts.explore.por = false;
      } else if (arg == "--all-violations") {
        opts.explore.find_all_violations = true;
      } else if (arg == "--trails") {
        trails = true;
      } else if (arg == "--simulation") {
        opts.explore.engine_kind = SearchEngineKind::kSingleExecution;
      } else if (arg == "--engine" && i + 1 < argc) {
        if (!parse_search_engine(argv[++i], opts.explore.engine_kind)) {
          throw std::runtime_error(std::string("bad --engine '") + argv[i] + "'");
        }
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        std::int64_t ms = 0;
        if (!parse_int<std::int64_t>(argv[++i], ms, 1)) return usage();
        opts.explore.budget.deadline = std::chrono::milliseconds(ms);
      } else if (arg == "--budget-states" && i + 1 < argc) {
        if (!parse_int<std::uint64_t>(argv[++i], opts.explore.budget.max_states,
                                      1)) {
          return usage();
        }
      } else if (arg == "--budget-bytes" && i + 1 < argc) {
        if (!parse_int<std::size_t>(argv[++i], opts.explore.budget.max_bytes,
                                    1)) {
          return usage();
        }
      } else if (arg == "--visited" && i + 1 < argc) {
        const std::string kind = argv[++i];
        if (kind == "exact") {
          opts.explore.visited = VisitedKind::kExact;
        } else if (kind == "bitstate") {
          opts.explore.visited = VisitedKind::kBitstate;
        } else {
          throw std::runtime_error("bad --visited '" + kind + "'");
        }
      } else if (arg.rfind("--", 0) == 0) {
        return usage();
      } else {
        if (!spec.empty()) spec += ' ';
        spec += arg;
      }
    }
    std::string policy_error;
    const std::unique_ptr<Policy> policy = make_policy(net, spec, policy_error);
    if (policy == nullptr) {
      std::fprintf(stderr, "error: %s\n", policy_error.c_str());
      return usage();
    }

    Verifier verifier(net, opts);
    std::printf("network: %zu devices, %zu links; %zu PECs (%zu routed)\n",
                net.topo.node_count(), net.topo.link_count(),
                verifier.pecs().pecs.size(), verifier.pecs().routed().size());
    const VerifyResult result =
        address ? verifier.verify_address(*address, *policy)
                : verifier.verify(*policy);

    const char* verdict_text = "HOLDS";
    if (result.verdict == Verdict::kViolated) {
      verdict_text = "VIOLATED";
    } else if (result.verdict == Verdict::kInconclusive) {
      verdict_text = "INCONCLUSIVE";
    }
    std::printf("policy %s: %s\n", policy->name().c_str(), verdict_text);
    std::printf("PECs verified: %zu (+%zu support), converged states: %llu, "
                "wall: %.2f ms, model memory: %.2f MB\n",
                result.pecs_verified, result.pecs_support,
                static_cast<unsigned long long>(result.total.converged_states),
                static_cast<double>(result.wall.count()) / 1e6,
                static_cast<double>(result.total.model_bytes()) / 1e6);
    std::printf("search: %s\n", result.total.summary().c_str());
    if (result.verdict == Verdict::kInconclusive) {
      std::printf("inconclusive: budget tripped = %s, %zu PEC(s) partial, "
                  "search %s%s%s, %llu budget checks\n",
                  to_string(result.budget_tripped),
                  result.pecs_inconclusive,
                  result.exhaustive ? "exhaustive" : "non-exhaustive",
                  is_exhaustive(opts.explore.engine_kind) ? ""
                                                          : " (single execution)",
                  result.unsupported_scc ? " (approximated cyclic SCC)" : "",
                  static_cast<unsigned long long>(result.total.budget_checks));
    }
    if (result.total.por_pruned + result.total.por_source_sets > 0) {
      std::printf("partial-order reduction: %llu moves pruned, %llu source "
                  "sets, footprints %.2f ms\n",
                  static_cast<unsigned long long>(result.total.por_pruned),
                  static_cast<unsigned long long>(result.total.por_source_sets),
                  static_cast<double>(result.total.por_footprint_time.count()) /
                      1e6);
    }
    if (opts.pec_dedup && result.pec_classes > 0) {
      std::printf("PEC classes: %zu over %zu target PECs (%zu translated, "
                  "%zu re-run natively, %zu orbit hits, %zu search fallbacks; "
                  "classing %.2f ms)\n",
                  result.pec_classes, result.pecs_verified,
                  result.pecs_deduped, result.dedup_reruns,
                  result.dedup_orbit_hits, result.dedup_search_fallbacks,
                  static_cast<double>(result.dedup_classing_time.count()) / 1e6);
    }
    for (const auto& rep : result.reports) {
      for (const auto& v : rep.result.violations) {
        std::printf("\nviolation in PEC %s: %s\n", rep.pec_str.c_str(),
                    v.message.c_str());
        if (!v.failures.empty()) {
          std::printf("  under failed links %s\n", v.failures.str().c_str());
        }
        if (trails) std::printf("%s", v.trail_text.c_str());
      }
    }
    switch (result.verdict) {
      case Verdict::kHolds: return 0;
      case Verdict::kViolated: return 1;
      case Verdict::kInconclusive: return 2;
      case Verdict::kError: break;
    }
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
