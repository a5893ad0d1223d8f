// plankton_bench — end-to-end and per-layer benchmark of the verifier and
// the serve daemon. See README.md in this directory.
//
//   plankton_bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//                  [--workdir dir] [--trace-out file] [--out file]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// metrics; both end with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and exit 1 when any output check failed.
#include <signal.h>
#include <sys/personality.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.hpp"

#ifndef PLANKTON_SERVE_BIN
#define PLANKTON_SERVE_BIN "plankton_serve"
#endif
#ifndef PLANKTON_BENCH_BUILD_TYPE
#define PLANKTON_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace plankton::bench_e2e;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json lists, in output order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"verdict_p10_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"config.parse_ms", "ms"},
    {"pec.compute_ms", "ms"},
    {"sched.deps_ms", "ms"},
    {"eqclass.classes_ms", "ms"},
    {"eqclass.pec_classes", "count"},
    {"eqclass.compression", "x"},
    {"eqclass.fingerprints_ms", "ms"},
    {"rpvp.explore_ms", "ms"},
    {"rpvp.states_explored", "count"},
    {"rpvp.states_per_s", "1/s"},
    {"rpvp.failure_sets", "count"},
    {"rpvp.ad_cache_hit_ratio", "ratio"},
    {"policy.checks", "count"},
    {"engine.states_stored", "count"},
    {"engine.revisit_ratio", "ratio"},
    {"engine.por_pruned", "count"},
    {"rpvp.model_mb", "MB"},
    {"sched.unattributed_ms", "ms"},
    {"serve.query_inproc_us", "us"},
    {"serve.apply_delta_ms", "ms"},
    {"serve.journal_append_ms", "ms"},
    {"serve.pecs_moved_per_delta", "count"},
    {"serve.reverify_verify_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.reverified_per_query", "count"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kWorkloads[] = {"verify_spvp", "verify_fattree",
                                      "verify_failures", "serve_hits",
                                      "serve_deltas"};

volatile sig_atomic_t g_signal = 0;

void on_signal(int sig) {
  g_signal = sig;
  // With a daemon running the workload sees its connection drop and
  // unwinds, removing the private directory; otherwise exit at once.
  if (!kill_live_daemon()) ::_exit(128 + sig);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "plankton_bench: %s\n"
               "usage: plankton_bench --workload <verify_spvp|verify_fattree|"
               "verify_failures|serve_hits|serve_deltas> [--seed n] "
               "[--seconds s] [--trace 0|1] [--workdir dir] [--trace-out file] "
               "[--out file]\n",
               why);
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string absolute(const std::string& path, const std::string& cwd) {
  return path.empty() || path[0] == '/' ? path : cwd + "/" + path;
}

std::string fs_type_of(const char* path) {
  struct statfs st {};
  if (::statfs(path, &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  // Address-space randomization moves heap and stack by a few pages from
  // run to run, and peak RSS with them. Re-exec once with it off; the
  // daemons inherit the setting. If either call fails, run randomized.
  const int persona = ::personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      ::personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    ::execv("/proc/self/exe", argv);
  }

  RunOptions ro;
  ro.serve_bin = PLANKTON_SERVE_BIN;
  bool trace = false;
  std::string workdir = ".";
  std::string trace_path;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      ro.workload = value;
    } else if (arg == "--seed") {
      ro.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      ro.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(ro.seconds > 0) ||
          ro.seconds > 3600) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--trace-out") {
      trace_path = value;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || ro.workload == w;
  if (!known) return usage("unknown or missing --workload");

  // Paths given relative to the caller stay so; everything the run creates
  // goes under the working directory, whose relative paths keep the Unix
  // socket paths short wherever the checkout lives.
  char cwd_buf[4096];
  const std::string cwd = ::getcwd(cwd_buf, sizeof cwd_buf) ? cwd_buf : ".";
  out_path = absolute(out_path, cwd);
  trace_path = absolute(trace_path, cwd);
  if (::chdir(workdir.c_str()) != 0) return usage("cannot enter --workdir");
  if (trace && trace_path.empty()) {
    // One file per workload, overwritten by its next traced run.
    trace_path = absolute("trace-" + ro.workload + ".json",
                          ::getcwd(cwd_buf, sizeof cwd_buf) ? cwd_buf : ".");
  }
  const std::string fs_type = fs_type_of(".");
  ro.nproc = std::max(1u, std::thread::hardware_concurrency());

  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGINT, on_signal);
  ::signal(SIGTERM, on_signal);

  RunResult out;
  Tracer tracer(trace);
  try {
    const bool serve = ro.workload.rfind("serve_", 0) == 0;
    if (!trace) {
      if (serve) {
        run_serve_e2e(ro, out);
      } else {
        run_verify_e2e(make_verify_spec(ro.workload, ro.seed), ro, out);
      }
    } else {
      // Every trace run measures every layer on its workload's network: the
      // verifier's layers on repeated verifications, the serve layers on an
      // in-process replay of the serve request mix. Each workload spends
      // its time where its own load is.
      LayerSamples layers;
      ReplaySizes sizes;
      if (serve) {
        const std::string config = serve_config(ro.seed);
        run_verify_layers(serve_verify_spec(config), ro.seconds * 0.3, tracer,
                          layers, out);
        const bool hits = ro.workload == "serve_hits";
        sizes.hit_queries = hits ? 20000 : 1000;
        sizes.pairs = hits ? 10 : static_cast<std::size_t>(60 * ro.seconds);
        run_serve_layers(config, ro.seed, sizes, tracer, layers, out);
      } else {
        const VerifySpec spec = make_verify_spec(ro.workload, ro.seed);
        run_verify_layers(spec, ro.seconds, tracer, layers, out);
        sizes.hit_queries = 200;
        sizes.pairs = 10;
        run_serve_layers(spec.config, ro.seed, sizes, tracer, layers, out);
      }
      for (const MetricDef& m : kPerLayer) {
        if (!layers.has(m.name)) {
          out.op(false, std::string("layer metric not measured: ") + m.name);
        }
        out.metric(m.name, layers.median(m.name), m.unit);
      }
      std::string error;
      out.op(tracer.write_chrome_json(trace_path, error), error);
      out.note("trace: " + trace_path);
      std::string self = "self time (ms):";
      for (const auto& [name, ms] : tracer.self_ms()) {
        char cell[128];
        std::snprintf(cell, sizeof cell, " %s %.3f |", name.c_str(), ms);
        self += cell;
      }
      out.note(self);
    }
  } catch (const std::exception& e) {
    out.op(false, std::string("exception: ") + e.what());
  }
  if (g_signal != 0) return 128 + g_signal;

  // Order and complete the metrics as BENCHMARK.json lists them.
  std::vector<Metric> ordered;
  if (!trace) {
    for (const MetricDef& def : kEndToEnd) {
      const Metric* found = nullptr;
      for (const Metric& m : out.metrics) {
        if (m.name == def.name) found = &m;
      }
      if (found == nullptr) {
        out.op(false, std::string("metric not measured: ") + def.name);
      }
      ordered.push_back(found != nullptr ? *found : Metric{def.name, 0, def.unit});
    }
  } else {
    ordered = out.metrics;
  }
  for (const Metric& m : ordered) {
    if (!std::isfinite(m.value)) out.op(false, "metric " + m.name + " is not finite");
  }

  const bool correct = out.failed == 0;
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "FAIL: %s\n", p.c_str());
  }
  const std::string env =
      "{\"workload\":" + quoted(ro.workload) + ",\"seed\":" +
      std::to_string(ro.seed) + ",\"seconds\":" + number(ro.seconds) +
      ",\"trace\":" + (trace ? "1" : "0") + ",\"nproc\":" +
      std::to_string(ro.nproc) + ",\"compiler\":" + quoted(compiler()) +
      ",\"build_type\":" + quoted(PLANKTON_BENCH_BUILD_TYPE) +
      ",\"fs_type\":" + quoted(fs_type) + "}";
  std::string metrics = "{";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const Metric& m = ordered[i];
    metrics += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  metrics += "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + metrics + "}";

  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::trunc);
    f << "{\"env\": " << env << ", \"result\": " << result << "}\n";
    if (!f) std::fprintf(stderr, "plankton_bench: cannot write %s\n", out_path.c_str());
  }
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::printf("env %s\n", env.c_str());
  for (const Metric& m : ordered) {
    std::printf("%-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
