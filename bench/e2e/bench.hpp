// plankton_bench: the repository's end-to-end and per-layer benchmark.
//
// Shared pieces: sample statistics, the record a workload run fills, the
// in-memory span tracer, the seeded inputs, and the workload entry points.
// README.md in this directory explains the workloads and the metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "serve/serve.hpp"

namespace plankton::bench_e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Timing or count samples. Percentiles interpolate linearly between the
/// closest ranks, as Python's statistics.quantiles(method="inclusive") does.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// q in [0, 100]; 0 for an empty sample.
  [[nodiscard]] double pct(double q) const;
  [[nodiscard]] double median() const { return pct(50); }

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Every request, verification and output
/// check is one attempted operation; a wrong answer or a transport error is
/// a failed one.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first failures, for stderr
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (breakdowns that are
  /// not metrics: monitor latency, wire time, the layer table).
  std::vector<std::string> notes;

  /// Counts one operation; records `what` when it failed.
  void op(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory around the public calls the benchmark
// makes, written as Chrome trace-event JSON when the run ends. A disabled
// tracer makes every span a no-op, so traced and untraced passes run the
// same code.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Records [construction, destruction) as a child of the innermost open
  /// span. `req` groups the spans of one serve request (0 = none).
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t req = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attaches a count measured at this boundary (trace-event "args").
    void arg(const char* key, double value);

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  /// Sum of each span name's self time (duration minus the part its direct
  /// children cover), in ms, ordered by first appearance.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms() const;

  bool write_chrome_json(const std::string& path, std::string& error) const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t req;
  };
  struct Arg {
    std::int32_t span;
    const char* key;
    double value;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<Arg> args_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

// ---------------------------------------------------------------------------
// Inputs. Everything a workload feeds the program derives from the seed.
// ---------------------------------------------------------------------------

/// One verification the verify workloads repeat: parse the config, build
/// the Verifier, verify the policy on the target PECs.
struct VerifySpec {
  std::string config;
  VerifyOptions opts;
  /// Builds the policy against the parsed network (node ids by name).
  std::unique_ptr<Policy> (*make_policy)(const Network& net);
  /// Verify only the PEC holding this address; unset = every routed PEC.
  bool single_pec = false;
  IpAddr target;
  Verdict expect = Verdict::kHolds;
};

/// The config the serve workloads load: a K=10 OSPF fat tree with perturbed
/// link costs (125 devices, 50 PECs, no two PECs isomorphic), node
/// declarations shuffled by the seed.
std::string serve_config(std::uint64_t seed);

/// A cold verification of a serve config: loop freedom on every routed PEC
/// with the daemon's options — what a daemon's first query runs.
VerifySpec serve_verify_spec(std::string config);

/// The spec of verify workload `name`: verify_spvp, verify_fattree or
/// verify_failures.
VerifySpec make_verify_spec(const std::string& name, std::uint64_t seed);

/// The serve workloads' config changes over one network. A step moves one
/// /32 static route to the next host address of a routed prefix, walking
/// the prefixes in a seeded order (50 x 254 steps on the serve config), so
/// every step splits out address ranges the daemon has not seen: a novel
/// delta. Every 50th step instead adds a mutual-static forwarding loop on
/// the first prefix, and the step after reverts it.
class DeltaStream {
 public:
  struct Step {
    serve::ApplyDeltaMsg delta;
    Verdict expect = Verdict::kHolds;  ///< the loop query's verdict after it
  };

  DeltaStream(const Network& net, std::uint64_t seed);

  /// False when the network has no routed prefix whose origin has a
  /// neighbour with a second neighbour (no loop can be built).
  [[nodiscard]] bool ok() const { return !targets_.empty(); }

  Step next();
  /// A step that leaves a forwarding loop in place (no ops when one already
  /// is), so a final check compares a violated state with violations.
  Step close_with_loop();

 private:
  /// A routed prefix, the device originating it, and that device's
  /// neighbours: a static there pointing at the origin cannot loop.
  struct Target {
    Prefix prefix;
    std::string origin;
    std::vector<std::string> movers;
  };

  Step loop_step(bool add);

  std::vector<Target> targets_;  ///< seeded order; loops use targets_[0]
  std::string loop_a_, loop_b_;  ///< neighbours of targets_[0]'s origin
  std::size_t target_ = 0;       ///< where the moving static goes next
  std::uint64_t host_ = 0;
  std::uint64_t step_ = 0;
  std::string moving_line_;  ///< the /32 static currently in the config
  bool loop_on_ = false;
};

/// Applies delta ops to a config text the way the daemon does: `add`
/// appends the line, `!add` removes its first exact match. False when a
/// removed line is absent.
bool apply_ops(std::string& config, const serve::ApplyDeltaMsg& delta);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string serve_bin;  ///< the plankton_serve executable
  unsigned nproc = 1;
};

/// Per-layer measurements, one sample per repetition (or per request),
/// reported as medians.
class LayerSamples {
 public:
  void add(const std::string& name, double value) { samples_[name].add(value); }
  [[nodiscard]] bool has(const std::string& name) const {
    return samples_.count(name) != 0;
  }
  [[nodiscard]] double median(const std::string& name) const;

 private:
  std::map<std::string, Samples> samples_;
};

/// verify_* workloads, untraced: end-to-end metrics of repeated
/// verifications measured in this process.
void run_verify_e2e(const VerifySpec& spec, const RunOptions& ro,
                    RunResult& out);

/// The verifier's layers on `spec`: `seconds` of repetitions, alternately
/// untraced and traced; a traced one also times the layer calls separately.
/// The two kinds' medians give the tracing overhead.
void run_verify_layers(const VerifySpec& spec, double seconds, Tracer& tracer,
                       LayerSamples& layers, RunResult& out);

/// serve_hits / serve_deltas, untraced: drive forked plankton_serve daemons
/// over a Unix socket in a private directory.
void run_serve_e2e(const RunOptions& ro, RunResult& out);

/// SIGKILLs the daemon a serve workload is running. Async-signal-safe, for
/// the signal handler; false when no daemon is running.
bool kill_live_daemon();

/// Fixed request counts, so the replay's counters repeat exactly.
struct ReplaySizes {
  std::size_t hit_queries = 0;
  std::size_t pairs = 0;  ///< delta/query pairs
};

/// The serve layers, in process: a ServeState with a journal in a private
/// directory answers hit queries, then delta/query pairs from the workload's
/// DeltaStream, with spans around every public call.
void run_serve_layers(const std::string& config, std::uint64_t seed,
                      const ReplaySizes& sizes, Tracer& tracer,
                      LayerSamples& layers, RunResult& out);

/// Peak resident set of process `pid` ("self" for this one) in MB, from
/// VmHWM in /proc/<pid>/status; 0 when unreadable. Unlike getrusage's
/// ru_maxrss it covers only the current program image, not the peak of
/// whatever the process ran before its last execve.
double peak_rss_mb(const std::string& pid);

/// The CPUs this process may run on (CPU 0 alone if that cannot be read).
std::vector<int> allowed_cpus();

/// A private directory under the working directory, removed with its
/// contents on destruction.
class PrivateDir {
 public:
  PrivateDir();
  ~PrivateDir();
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;

  [[nodiscard]] bool ok() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace plankton::bench_e2e
