// Shared utilities for the figure-reproduction harnesses.
//
// Every bench prints the same rows/series as the corresponding paper figure
// plus a `paper_shape:` line stating the qualitative claim being reproduced.
// Default sizes are scaled down so the full suite runs in minutes; set
// PLANKTON_BENCH_FULL=1 for paper-scale sizes and PLANKTON_MS_BUDGET_MS to
// change the baseline solver budget (default 10000 ms, standing in for the
// paper's 4-hour Minesweeper timeout).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace plankton::bench {

inline bool full_scale() {
  const char* v = std::getenv("PLANKTON_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

inline std::chrono::milliseconds baseline_budget() {
  const char* v = std::getenv("PLANKTON_MS_BUDGET_MS");
  return std::chrono::milliseconds(v != nullptr ? std::atol(v) : 10000);
}

inline double ms(std::chrono::nanoseconds d) {
  return static_cast<double>(d.count()) / 1e6;
}

inline double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// "12.34 ms" or "TIMEOUT" — the paper prints timeouts as bars at the cap.
/// Verifier rows pass `budget_tripped == BudgetKind::kDeadline`.
inline std::string time_cell(std::chrono::nanoseconds d, bool timed_out) {
  if (timed_out) return "TIMEOUT";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f ms", ms(d));
  return buf;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] std::chrono::nanoseconds elapsed() const {
    return std::chrono::steady_clock::now() - start_;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void header(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("mode: %s scale (set PLANKTON_BENCH_FULL=1 for paper sizes)\n",
              full_scale() ? "paper" : "reduced");
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// JSON perf trajectory (PLANKTON_BENCH_JSON=<path>)
//
// Every timed row of every bench reports itself through emit(); when the
// environment variable names a file, the rows are written there as a JSON
// array of {bench, row, time_ms, states, bytes} records at process exit.
// BENCH_perf.json (written by bench/perf_smoke) is the committed trajectory:
// one record set per PR, so regressions show up as diffs.
// ---------------------------------------------------------------------------

struct JsonRecord {
  std::string bench;
  std::string row;
  double time_ms = 0;
  std::uint64_t states = 0;
  std::uint64_t bytes = 0;
};

class JsonSink {
 public:
  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  /// Overrides the output path (otherwise PLANKTON_BENCH_JSON, else off).
  void set_path(std::string path) { path_ = std::move(path); }

  void add(JsonRecord rec) {
    if (path_.empty()) return;
    records_.push_back(std::move(rec));
  }

  ~JsonSink() { flush(); }

  void flush() {
    if (path_.empty() || records_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"row\": \"%s\", \"time_ms\": %.3f, "
                   "\"states\": %llu, \"bytes\": %llu}%s\n",
                   escape(r.bench).c_str(), escape(r.row).c_str(), r.time_ms,
                   static_cast<unsigned long long>(r.states),
                   static_cast<unsigned long long>(r.bytes),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  JsonSink() {
    const char* p = std::getenv("PLANKTON_BENCH_JSON");
    if (p != nullptr && p[0] != '\0') path_ = p;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // keep rows simple
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<JsonRecord> records_;
};

/// Reports one timed row into the JSON trajectory (no-op when disabled).
inline void emit(const char* bench, const std::string& row, double time_ms,
                 std::uint64_t states, std::uint64_t bytes) {
  JsonSink::instance().add(JsonRecord{bench, row, time_ms, states, bytes});
}

/// Guards a timed row against accidental resource budgets
/// (VerifyOptions::explore.budget, checker/budget.hpp): a tripped budget
/// stops the exploration early, and a silently-truncated row would enter the
/// committed trajectory as a fake speedup. Rows whose cap or timeout defines
/// them (the fig9 and fig_engine_matrix state caps, the perf_smoke "capped"
/// and "budget-*" rows, the fig8/fig7g timeout bars) set the budget on
/// purpose and skip this guard.
template <typename VerifyOptionsT>
inline const VerifyOptionsT& assert_unbudgeted(const VerifyOptionsT& vo) {
  if (vo.explore.budget.any()) {
    std::fprintf(stderr,
                 "bench: an unlabelled trajectory row carries a resource "
                 "budget; budgeted rows must say so in their name\n");
    std::abort();
  }
  return vo;
}

}  // namespace plankton::bench
