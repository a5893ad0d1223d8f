// Serve workloads. The end-to-end runs fork the shipped plankton_serve into
// a private directory and drive it over its Unix socket with the
// serve/server.hpp client helpers; the layer runs replay the same requests
// in process against a ServeState.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "config/parser.hpp"
#include "serve/server.hpp"

namespace plankton::bench_e2e {

namespace {

using sched::MsgType;

std::atomic<pid_t> g_live_daemon{-1};

std::string tail_of(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string s = ss.str();
  return s.size() > 400 ? s.substr(s.size() - 400) : s;
}

const std::string& loop_query() {
  static const std::string payload =
      serve::encode_query(serve::QueryMsg{"loop", 0});
  return payload;
}

/// One client connection. Reads and writes time out after 60 s, so a wedged
/// daemon fails the run instead of hanging it.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool rpc(MsgType type, std::string_view payload, sched::Frame& reply,
           std::string& error) {
    if (!serve::send_frame(fd_, type, payload)) {
      error = "send failed";
      return false;
    }
    return serve::recv_frame(fd_, decoder_, reply, error);
  }

  /// A request answered by kVerdictReply.
  bool verdict(MsgType type, std::string_view payload,
               serve::VerdictReplyMsg& reply, std::string& error) {
    sched::Frame frame;
    if (!rpc(type, payload, frame, error)) return false;
    if (frame.type != MsgType::kVerdictReply ||
        !serve::decode_verdict_reply(frame.payload, reply)) {
      error = "malformed reply";
      return false;
    }
    return true;
  }

 private:
  int fd_;
  sched::FrameDecoder decoder_;
};

/// One plankton_serve child, running in a private directory with its own
/// socket and journal, pinned to `cpu` unless it is negative. It dies with
/// the bench (PR_SET_PDEATHSIG) and is reaped on every exit path: by stop()
/// on success, by the destructor's SIGKILL otherwise.
class Daemon {
 public:
  Daemon(const std::string& bin, const PrivateDir& dir, const std::string& tag,
         int cpu)
      : socket_(dir.file(tag + ".sock")), log_(dir.file(tag + ".log")) {
    // The child only makes async-signal-safe calls (the parent may have
    // threads), so everything it needs is built before fork.
    const std::string workdir = dir.path();
    const std::string sock = tag + ".sock";
    const std::string journal = tag + ".journal";
    const std::string log = tag + ".log";
    std::vector<std::string> args = {bin, "--socket", sock, "--journal", journal};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::sched_setaffinity(0, sizeof one, &one);
      }
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent || ::chdir(workdir.c_str()) != 0) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    if (pid_ > 0) g_live_daemon.store(pid_);
  }

  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap(0);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects, retrying while the daemon starts: readiness is the first
  /// accepted connection. Fails when the daemon exits or `timeout` passes.
  int connect_ready(std::chrono::milliseconds timeout, std::string& error) {
    const Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
      const int fd = serve::connect_unix(socket_, error);
      if (fd >= 0) {
        error.clear();  // drop the failed attempts' messages
        return fd;
      }
      if (pid_ <= 0 || reap(WNOHANG)) {
        error = "daemon exited before accepting: " + tail_of(log_);
        return -1;
      }
      if (Clock::now() > deadline) {
        error = "daemon not accepting: " + error;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// kShutdown on `conn`, then waits for a clean exit, SIGKILLing after
  /// 10 s. The daemon's peak RSS is read just before the shutdown.
  bool stop(Conn& conn, std::string& error) {
    peak_rss_mb_ = peak_rss_mb(std::to_string(pid_));
    sched::Frame frame;
    const bool acked = conn.rpc(MsgType::kShutdown, "", frame, error);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (pid_ > 0 && !reap(WNOHANG)) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        reap(0);
        error = "daemon did not exit after kShutdown";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!acked) return false;
    if (!WIFEXITED(status_) || WEXITSTATUS(status_) != 0) {
      error = "daemon exit status " + std::to_string(status_) + ": " +
              tail_of(log_);
      return false;
    }
    return true;
  }

  [[nodiscard]] double peak_rss() const { return peak_rss_mb_; }

 private:
  /// waitpid on the child; true once it has been reaped.
  bool reap(int flags) {
    pid_t r = 0;
    do {
      r = ::waitpid(pid_, &status_, flags);
    } while (r < 0 && errno == EINTR);
    if (r == 0) return false;  // WNOHANG, still running
    pid_ = -1;
    g_live_daemon.store(-1);
    return true;
  }

  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
  int status_ = 0;
  double peak_rss_mb_ = 0;
};

struct Warm {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Conn> conn;
};

/// Where a start-up's time goes, in ms.
struct StartupParts {
  Samples accept_ms;  ///< fork + exec until the first accepted connection
  Samples load_ms;    ///< kLoadNet round trip (parse, Verifier, journal)
  Samples cold_ms;    ///< the cold loop query that fills the cache
};

/// Exec to warm cache: start a daemon (on `cpu`, see Daemon), connect, load
/// `config`, and run the cold loop query that fills the verdict cache.
/// Seconds taken, or < 0.
double start_warm(const RunOptions& ro, const PrivateDir& dir,
                  const std::string& tag, int cpu, const std::string& config,
                  Warm& w, StartupParts& parts, RunResult& out) {
  const Clock::time_point t0 = Clock::now();
  w.daemon = std::make_unique<Daemon>(ro.serve_bin, dir, tag, cpu);
  std::string error;
  const int fd = w.daemon->connect_ready(std::chrono::seconds(30), error);
  out.op(fd >= 0, tag + ": " + error);
  if (fd < 0) return -1;
  const Clock::time_point t1 = Clock::now();
  w.conn = std::make_unique<Conn>(fd);
  serve::VerdictReplyMsg reply;
  bool ok = w.conn->verdict(MsgType::kLoadNet,
                            serve::encode_load_net(serve::LoadNetMsg{config}),
                            reply, error) &&
            reply.ok;
  out.op(ok, tag + " load: " + error + reply.error);
  if (!ok) return -1;
  const Clock::time_point t2 = Clock::now();
  ok = w.conn->verdict(MsgType::kQuery, loop_query(), reply, error);
  out.op(ok && reply.ok &&
             static_cast<Verdict>(reply.verdict) == Verdict::kHolds &&
             reply.targets > 0 && reply.reverified == reply.targets,
         tag + " cold query: " + error + reply.error);
  if (!ok) return -1;
  const Clock::time_point t3 = Clock::now();
  parts.accept_ms.add(ms_between(t0, t1));
  parts.load_ms.add(ms_between(t1, t2));
  parts.cold_ms.add(ms_between(t2, t3));
  return ms_between(t0, t3) / 1e3;
}

void merge(RunResult& into, const RunResult& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& p : from.problems) {
    if (into.problems.size() < 20) into.problems.push_back(p);
  }
}

std::string reply_problem(const char* what, const std::string& error,
                          const serve::VerdictReplyMsg& r) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s: ok=%d verdict=%s targets=%llu hits=%llu reverified=%llu",
                what, r.ok ? 1 : 0, to_string(static_cast<Verdict>(r.verdict)),
                static_cast<unsigned long long>(r.targets),
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.reverified));
  return buf + (error.empty() ? "" : " (" + error + ")") +
         (r.error.empty() ? "" : " [" + r.error + "]");
}

/// The daemon's final verdict and violation set must equal a fresh
/// in-process verification of the bench's own copy of the config.
void final_check(Conn& conn, const std::string& config, Verdict expect,
                 RunResult& out) {
  serve::VerdictReplyMsg reply;
  std::string error;
  const bool ok = conn.verdict(MsgType::kQuery, loop_query(), reply, error);
  out.op(ok && static_cast<Verdict>(reply.verdict) == expect,
         reply_problem("final query", error, reply));
  if (!ok) return;
  const ParsedNetwork parsed = parse_network_config(config);
  VerifyOptions vo;
  vo.cores = 1;
  Verifier verifier(parsed.net, vo);
  const VerifyResult fresh = verifier.verify(LoopFreedomPolicy());
  std::vector<std::string> want;
  for (const PecReport& rep : fresh.reports) {
    for (const Violation& v : rep.result.violations) {
      if (!v.message.empty() || !v.trail_text.empty()) {
        want.push_back(rep.pec_str + "|" + v.message);
      }
    }
  }
  std::vector<std::string> got;
  for (const serve::ViolationText& v : reply.violations) {
    got.push_back(v.pec + "|" + v.message);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  out.op(static_cast<Verdict>(reply.verdict) == fresh.verdict,
         std::string("final verdict ") +
             to_string(static_cast<Verdict>(reply.verdict)) +
             " vs fresh in-process " + to_string(fresh.verdict));
  out.op(got == want, "final violation set differs from a fresh in-process run (" +
                          std::to_string(got.size()) + " vs " +
                          std::to_string(want.size()) + ")");
}

struct ClientLog {
  RunResult result;
  Samples rtt_ms;
  Samples wire_us;  ///< round trip minus the daemon's in-process time
};

Clock::duration seconds_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// serve_hits: closed-loop clients, each on its own connection, issue the
/// loop query; every reply must be all cache hits.
class HitLoad {
 public:
  HitLoad(Daemon& daemon, unsigned clients, RunResult& out) {
    std::string error;
    for (unsigned c = 0; c < clients; ++c) {
      const int fd = daemon.connect_ready(std::chrono::seconds(5), error);
      out.op(fd >= 0, "client connect: " + error);
      if (fd < 0) return;
      conns_.push_back(std::make_unique<Conn>(fd));
    }
    logs_.resize(conns_.size());
  }

  void run(double seconds) {
    const Clock::time_point deadline = Clock::now() + seconds_of(seconds);
    std::vector<std::jthread> threads;  // joined on every exit path
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      threads.emplace_back([&conn = *conns_[c], &log = logs_[c], deadline] {
        serve::VerdictReplyMsg reply;
        std::string err;
        while (Clock::now() < deadline) {
          const Clock::time_point t0 = Clock::now();
          const bool sent =
              conn.verdict(MsgType::kQuery, loop_query(), reply, err);
          const double ms = ms_between(t0, Clock::now());
          const bool ok =
              sent && reply.ok &&
              static_cast<Verdict>(reply.verdict) == Verdict::kHolds &&
              reply.cache_hits == reply.targets && reply.reverified == 0;
          log.result.op(ok, ok ? std::string()
                               : reply_problem("hit query", err, reply));
          if (!sent) return;
          log.rtt_ms.add(ms);
          log.wire_us.add(ms * 1e3 - static_cast<double>(reply.wall_ns) / 1e3);
        }
      });
    }
  }

  void report(RunResult& out, Samples& verdict_ms) const {
    Samples wire_us;
    for (const ClientLog& log : logs_) {
      merge(out, log.result);
      verdict_ms.append(log.rtt_ms);
      wire_us.append(log.wire_us);
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "queries: %zu over %zu clients; wire (round trip minus "
                  "daemon in-process time) p50 %.1f us",
                  verdict_ms.size(), logs_.size(), wire_us.median());
    out.note(line);
  }

 private:
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<ClientLog> logs_;
};

/// serve_deltas: the writer connection runs delta/query pairs while a
/// monitor polls kCacheStats on its own connection. The monitor's tail is
/// the head-of-line blocking a cheap request suffers behind a delta. The
/// bench keeps its own copy of the config, edited like the daemon's.
class DeltaLoad {
 public:
  DeltaLoad(Daemon& daemon, Conn& writer, const std::string& config,
            std::uint64_t seed, RunResult& out)
      : writer_(writer),
        config_(config),
        stream_(parse_network_config(config).net, seed) {
    out.op(stream_.ok(), "no prefix to build deltas on");
    std::string error;
    const int fd = daemon.connect_ready(std::chrono::seconds(5), error);
    out.op(fd >= 0, "monitor connect: " + error);
    if (fd >= 0) monitor_conn_ = std::make_unique<Conn>(fd);
  }

  [[nodiscard]] bool ok() const { return stream_.ok() && monitor_conn_; }
  [[nodiscard]] const std::string& config() const { return config_; }

  void run(double seconds, RunResult& out) {
    std::jthread monitor([this](const std::stop_token& stop) {
      sched::Frame frame;
      serve::CacheStatsMsg stats;
      std::string err;
      while (!stop.stop_requested()) {
        const Clock::time_point t0 = Clock::now();
        const bool ok =
            monitor_conn_->rpc(MsgType::kCacheStats, "", frame, err) &&
            frame.type == MsgType::kCacheStats &&
            serve::decode_cache_stats(frame.payload, stats);
        monitor_.result.op(ok, ok ? std::string() : "cache stats: " + err);
        if (!ok) return;
        monitor_.rtt_ms.add(ms_between(t0, Clock::now()));
      }
    });
    serve::VerdictReplyMsg reply;
    std::string error;
    const Clock::time_point deadline = Clock::now() + seconds_of(seconds);
    while (Clock::now() < deadline) {
      const DeltaStream::Step step = stream_.next();
      const Clock::time_point t0 = Clock::now();
      bool sent = writer_.verdict(MsgType::kApplyDelta,
                                  serve::encode_apply_delta(step.delta), reply,
                                  error);
      const Clock::time_point t1 = Clock::now();
      const bool mirrored = apply_ops(config_, step.delta);
      out.op(sent && reply.ok && reply.moved > 0 && mirrored,
             reply_problem("delta", error, reply));
      if (!sent) return;
      moved_ += reply.moved;
      sent = writer_.verdict(MsgType::kQuery, loop_query(), reply, error);
      const Clock::time_point t2 = Clock::now();
      out.op(sent && reply.ok &&
                 static_cast<Verdict>(reply.verdict) == step.expect &&
                 reply.cache_hits + reply.reverified == reply.targets,
             reply_problem("post-delta query", error, reply));
      if (!sent) return;
      reverified_ += reply.reverified;
      hits_ += reply.cache_hits;
      targets_ += reply.targets;
      delta_ms_.add(ms_between(t0, t1));
      query_ms_.add(ms_between(t1, t2));
      pair_ms_.add(ms_between(t0, t2));
    }
  }  // the monitor stops and is joined here

  /// Leaves a forwarding loop in place, so the final comparison covers
  /// violations too; returns the verdict that state must have.
  Verdict close(RunResult& out) {
    const DeltaStream::Step last = stream_.close_with_loop();
    if (!last.delta.ops.empty()) {
      serve::VerdictReplyMsg reply;
      std::string error;
      const bool sent = writer_.verdict(MsgType::kApplyDelta,
                                        serve::encode_apply_delta(last.delta),
                                        reply, error);
      out.op(sent && reply.ok && apply_ops(config_, last.delta),
             reply_problem("closing delta", error, reply));
    }
    return last.expect;
  }

  void report(RunResult& out, Samples& verdict_ms) const {
    merge(out, monitor_.result);
    verdict_ms.append(pair_ms_);
    const double n = std::max<double>(1, static_cast<double>(pair_ms_.size()));
    char line[320];
    std::snprintf(line, sizeof line,
                  "pairs: %zu; delta p50 %.2f ms p99 %.2f ms; post-delta "
                  "query p50 %.2f ms p99 %.2f ms; moved/delta %.2f, "
                  "reverified/query %.2f, hit ratio %.4f",
                  pair_ms_.size(), delta_ms_.median(), delta_ms_.pct(99),
                  query_ms_.median(), query_ms_.pct(99),
                  static_cast<double>(moved_) / n,
                  static_cast<double>(reverified_) / n,
                  targets_ == 0 ? 0.0
                                : static_cast<double>(hits_) /
                                      static_cast<double>(targets_));
    out.note(line);
    std::snprintf(line, sizeof line,
                  "monitor: %zu kCacheStats polls, p50 %.3f ms p99 %.3f ms",
                  monitor_.rtt_ms.size(), monitor_.rtt_ms.median(),
                  monitor_.rtt_ms.pct(99));
    out.note(line);
  }

 private:
  Conn& writer_;
  std::string config_;
  DeltaStream stream_;
  std::unique_ptr<Conn> monitor_conn_;
  ClientLog monitor_;
  Samples delta_ms_, query_ms_, pair_ms_;
  std::uint64_t moved_ = 0, reverified_ = 0, hits_ = 0, targets_ = 0;
};

}  // namespace

bool kill_live_daemon() {
  const pid_t pid = g_live_daemon.load();
  if (pid <= 0) return false;
  ::kill(pid, SIGKILL);
  return true;
}

void run_serve_e2e(const RunOptions& ro, RunResult& out) {
  const PrivateDir dir;
  out.op(dir.ok(), "cannot create a private directory");
  if (!dir.ok()) return;
  const std::string config = serve_config(ro.seed);

  // Five fresh start-ups, each with an empty journal. The first serves the
  // load; the load then runs in four segments with one more start-up after
  // each, while it is paused. Host speed shifts within seconds, so the
  // start-ups are spread over the run. A process also keeps the speed of
  // the CPU it lands on, and the CPUs differ, so the four later start-ups
  // are pinned to different CPUs.
  const std::vector<int> cpus = allowed_cpus();
  Samples setup_s;
  StartupParts parts;
  std::string error;
  Warm w;
  double s = start_warm(ro, dir, "load", -1, config, w, parts, out);
  if (s < 0) return;
  setup_s.add(s);

  const bool hits = ro.workload == "serve_hits";
  std::optional<HitLoad> hit_load;
  std::optional<DeltaLoad> delta_load;
  if (hits) {
    // The daemon plus the clients keep at most 3 threads busy.
    hit_load.emplace(*w.daemon, std::clamp(ro.nproc, 2u, 3u) - 1, out);
  } else {
    delta_load.emplace(*w.daemon, *w.conn, config, ro.seed, out);
    if (!delta_load->ok()) return;
  }
  constexpr int kSegments = 4;
  double load_s = 0;
  for (int i = 0; i < kSegments; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (hits) {
      hit_load->run(ro.seconds / kSegments);
    } else {
      delta_load->run(ro.seconds / kSegments, out);
    }
    load_s += ms_between(t0, Clock::now()) / 1e3;
    Warm side;
    s = start_warm(ro, dir, "d" + std::to_string(i),
                   cpus[static_cast<std::size_t>(i) % cpus.size()], config,
                   side, parts, out);
    if (s < 0) return;
    setup_s.add(s);
    out.op(side.daemon->stop(*side.conn, error), "daemon stop: " + error);
  }

  Samples verdict_ms;
  if (hits) {
    hit_load->report(out, verdict_ms);
    final_check(*w.conn, config, Verdict::kHolds, out);
  } else {
    const Verdict expect = delta_load->close(out);
    delta_load->report(out, verdict_ms);
    final_check(*w.conn, delta_load->config(), expect, out);
  }
  out.op(w.daemon->stop(*w.conn, error), "daemon stop: " + error);

  char line[200];
  std::snprintf(line, sizeof line,
                "setup (median of %zu, ms): exec to accept %.2f, load %.2f, "
                "cold query %.2f",
                setup_s.size(), parts.accept_ms.median(),
                parts.load_ms.median(), parts.cold_ms.median());
  out.note(line);
  std::snprintf(line, sizeof line,
                "verdict latency (ms): min %.4f p10 %.4f p25 %.4f p50 %.4f "
                "p75 %.4f p90 %.4f p99 %.4f, n=%zu; %.1f verdicts/s",
                verdict_ms.pct(0), verdict_ms.pct(10), verdict_ms.pct(25),
                verdict_ms.median(), verdict_ms.pct(75), verdict_ms.pct(90),
                verdict_ms.pct(99), verdict_ms.size(),
                load_s > 0 ? static_cast<double>(verdict_ms.size()) / load_s
                           : 0.0);
  out.note(line);
  out.metric("setup_s", setup_s.median(), "s");
  out.metric("verdict_p10_ms", verdict_ms.pct(10), "ms");
  out.metric("peak_rss_mb", w.daemon->peak_rss(), "MB");
}

void run_serve_layers(const std::string& config, std::uint64_t seed,
                      const ReplaySizes& sizes, Tracer& tracer,
                      LayerSamples& layers, RunResult& out) {
  const PrivateDir dir;
  out.op(dir.ok(), "cannot create a private directory");
  if (!dir.ok()) return;
  VerifyOptions vo;
  vo.cores = 1;
  serve::ServeState state(vo);
  // A second journal takes the same encoded deltas, so the append + fsync
  // cost is timed on its own next to the apply_delta that includes it.
  serve::Journal side;
  std::string error;
  out.op(state.attach_journal(dir.file("replay.journal"), error) &&
             side.open(dir.file("append.journal"), error),
         "journal: " + error);
  std::uint64_t req = 0;
  bool ok = false;
  {
    Tracer::Span s(tracer, "serve.load", ++req);
    ok = state.load(config, error);
  }
  out.op(ok, "in-process load: " + error);
  if (!ok) return;
  const serve::QueryMsg loop{"loop", 0};
  serve::VerdictReplyMsg reply;
  {
    Tracer::Span s(tracer, "serve.query", ++req);
    reply = state.query(loop);
  }
  out.op(reply.ok && static_cast<Verdict>(reply.verdict) == Verdict::kHolds &&
             reply.reverified == reply.targets,
         reply_problem("in-process cold query", "", reply));

  // Mirror of the verdict cache: (PEC identity, cone) pairs with a clean
  // hold. The cold query held, so every routed PEC is clean.
  std::set<std::pair<std::string, std::uint64_t>> clean;
  const auto key = [&state](PecId p) {
    return std::pair{state.verifier().pecs().pecs[p].str(), state.cone_of(p)};
  };
  for (const PecId p : state.verifier().pecs().routed()) clean.insert(key(p));

  for (std::size_t i = 0; i < sizes.hit_queries; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span s(tracer, "serve.query", ++req);
      reply = state.query(loop);
    }
    layers.add("serve.query_inproc_us", ms_between(t0, Clock::now()) * 1e3);
    const bool hit = reply.ok && reply.cache_hits == reply.targets &&
                     static_cast<Verdict>(reply.verdict) == Verdict::kHolds;
    out.op(hit, hit ? std::string() : reply_problem("in-process hit", "", reply));
  }

  DeltaStream stream(state.net(), seed);
  out.op(stream.ok(), "no prefix to build deltas on");
  const LoopFreedomPolicy policy;
  std::uint64_t pairs = 0, moved = 0, reverified = 0, hits = 0, targets = 0;
  while (stream.ok() && pairs < sizes.pairs) {
    ++pairs;
    ++req;
    const DeltaStream::Step step = stream.next();
    Clock::time_point t = Clock::now();
    const auto lap = [&t] {
      const Clock::time_point now = Clock::now();
      const double ms = ms_between(t, now);
      t = now;
      return ms;
    };
    {
      Tracer::Span s(tracer, "serve.apply_delta", req);
      ok = state.apply_delta(step.delta, error);
    }
    layers.add("serve.apply_delta_ms", lap());
    out.op(ok, "in-process delta: " + error);
    if (!ok) return;
    moved += state.last_moved();
    const std::string encoded = serve::encode_apply_delta(step.delta);
    lap();
    {
      Tracer::Span s(tracer, "serve.journal_append", req);
      ok = side.append(serve::JournalRecord::kApplyDelta, encoded, error);
    }
    layers.add("serve.journal_append_ms", lap());
    out.op(ok, "journal append: " + error);

    // What the next query must re-verify: routed PECs without a clean hold
    // under their current cone. Verified here with the same Verifier calls
    // the daemon makes, so their cost is timed on its own.
    std::vector<PecId> misses;
    for (const PecId p : state.verifier().pecs().routed()) {
      if (clean.count(key(p)) == 0) misses.push_back(p);
    }
    if (!misses.empty()) {
      lap();
      VerifyResult r;
      {
        Tracer::Span s(tracer, "serve.reverify_verify", req);
        Verifier verifier(state.net(), vo);
        r = verifier.verify_pecs(misses, policy);
      }
      layers.add("serve.reverify_verify_ms", lap());
      for (const PecReport& rep : r.reports) {
        if (rep.result.violations.empty()) clean.insert(key(rep.pec));
      }
    }
    {
      Tracer::Span s(tracer, "serve.query", req);
      reply = state.query(loop);
    }
    out.op(reply.ok && static_cast<Verdict>(reply.verdict) == step.expect &&
               reply.reverified == misses.size() &&
               reply.cache_hits + reply.reverified == reply.targets,
           reply_problem("in-process post-delta query", "", reply));
    reverified += reply.reverified;
    hits += reply.cache_hits;
    targets += reply.targets;
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(pairs, 1));
  layers.add("serve.pecs_moved_per_delta", static_cast<double>(moved) / n);
  layers.add("serve.reverified_per_query", static_cast<double>(reverified) / n);
  layers.add("serve.hit_ratio", targets == 0 ? 0.0
                                             : static_cast<double>(hits) /
                                                   static_cast<double>(targets));
}

}  // namespace plankton::bench_e2e
