#include <dirent.h>
#include <sched.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.hpp"

namespace plankton::bench_e2e {

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

double Samples::pct(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

void RunResult::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 20) problems.push_back(what);
}

void RunResult::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

double LayerSamples::median(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0 : it->second.median();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t req)
    : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  const std::int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back(Record{name, tracer.now_ns(), 0, parent, req});
  tracer.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

void Tracer::Span::arg(const char* key, double value) {
  if (index_ >= 0) tracer_->args_.push_back(Arg{index_, key, value});
}

std::vector<std::pair<std::string, double>> Tracer::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto [it, fresh] = slot.try_emplace(spans_[i].name, out.size());
    if (fresh) out.emplace_back(spans_[i].name, 0.0);
    out[it->second].second +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) /
        1e6;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::string& error) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    error = "cannot write trace '" + path + "'";
    return false;
  }
  // Complete ("X") events; ts/dur in microseconds. Parent and request ids
  // ride in args so tools that ignore nesting still see them.
  std::vector<std::vector<const Arg*>> args_of(spans_.size());
  for (const Arg& a : args_) args_of[static_cast<std::size_t>(a.span)].push_back(&a);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%llu",
                  i == 0 ? "" : ",\n", r.name,
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                  r.parent, static_cast<unsigned long long>(r.req));
    f << buf;
    for (const Arg* a : args_of[i]) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", a->key, a->value);
      f << buf;
    }
    f << "}}";
  }
  f << "\n]}\n";
  f.close();
  if (!f) {
    error = "short write to trace '" + path + "'";
    return false;
  }
  return true;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

// ---------------------------------------------------------------------------
// PrivateDir
// ---------------------------------------------------------------------------

PrivateDir::PrivateDir() {
  char tmpl[] = "run.XXXXXX";
  if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
}

PrivateDir::~PrivateDir() {
  if (path_.empty()) return;
  if (DIR* d = ::opendir(path_.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink(file(name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path_.c_str());
}

}  // namespace plankton::bench_e2e
