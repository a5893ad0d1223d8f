#include "sched/shard.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "checker/progress.hpp"
#include "config/network.hpp"

#include "sched/transport.hpp"
#include "sched/wire.hpp"

namespace plankton::sched {
namespace {

using wire::get_int;
using wire::put_int;

// -- robust fd I/O ----------------------------------------------------------

/// A peer that accepts nothing for this long is presumed wedged: the write
/// degrades to a transport error (→ the reassignment path) instead of
/// spinning forever. Polls ride in short slices so the budget is accurate.
constexpr int kWriteStallBudgetMs = 10000;
constexpr int kWritePollSliceMs = 100;
/// EINTR ceiling per write_all call: a signal storm must not become an
/// unbounded retry loop either.
constexpr int kMaxEintrRetries = 1024;

}  // namespace

/// Bounded retries (the coordinator keeps its ends non-blocking so it can
/// also drain without blocking). The synthetic EINTRs drive the same retry
/// accounting a real signal storm would.
bool write_all(int fd, const char* data, std::size_t n, bool* stalled,
               std::uint32_t synthetic_eintr) {
  if (stalled != nullptr) *stalled = false;
  int stalled_ms = 0;
  int eintr_count = 0;
  while (n > 0) {
    if (synthetic_eintr > 0) {
      --synthetic_eintr;
      if (++eintr_count > kMaxEintrRetries) {
        if (stalled != nullptr) *stalled = true;
        return false;
      }
      continue;
    }
    const ssize_t w = send(fd, data, n, MSG_NOSIGNAL);
    if (w > 0) {
      data += w;
      n -= static_cast<std::size_t>(w);
      stalled_ms = 0;
      eintr_count = 0;
      continue;
    }
    if (w < 0 && errno == EINTR) {
      if (++eintr_count > kMaxEintrRetries) {
        if (stalled != nullptr) *stalled = true;
        return false;
      }
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (stalled_ms >= kWriteStallBudgetMs) {
        if (stalled != nullptr) *stalled = true;
        return false;
      }
      pollfd pfd{fd, POLLOUT, 0};
      (void)poll(&pfd, 1, kWritePollSliceMs);
      stalled_ms += kWritePollSliceMs;
      continue;
    }
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

void encode_frame(std::string& out, MsgType type, std::string_view payload) {
  put_int(out, kFrameMagic);
  put_int(out, kFrameVersion);
  put_int(out, static_cast<std::uint16_t>(type));
  put_int(out, static_cast<std::uint64_t>(payload.size()));
  out.append(payload);
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (failed_) return;
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (failed_) return Status::kError;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return Status::kNeedMore;
  std::string_view hdr(buf_.data() + pos_, kFrameHeaderBytes);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t type = 0;
  std::uint64_t len = 0;
  (void)get_int(hdr, magic);
  (void)get_int(hdr, version);
  (void)get_int(hdr, type);
  (void)get_int(hdr, len);
  const auto poison = [this](const char* why) {
    failed_ = true;
    error_ = why;
    return Status::kError;
  };
  if (magic != kFrameMagic) return poison("bad frame magic");
  if (version != kFrameVersion) return poison("unsupported frame version");
  if (type < static_cast<std::uint16_t>(MsgType::kTaskAssign) ||
      type > static_cast<std::uint16_t>(MsgType::kBootstrapAck)) {
    return poison("unknown message type");
  }
  // Stream-state machine: kShutdown is terminal. Anything framed after it
  // (a late kHeartbeat from a confused worker, injected bytes on the serve
  // socket) is a protocol violation, not data to process.
  if (shutdown_seen_) return poison("frame after shutdown");
  if (len > kMaxFramePayload) return poison("frame payload exceeds limit");
  if (avail - kFrameHeaderBytes < len) return Status::kNeedMore;
  out.type = static_cast<MsgType>(type);
  if (out.type == MsgType::kShutdown) shutdown_seen_ = true;
  out.payload.assign(buf_.data() + pos_ + kFrameHeaderBytes,
                     static_cast<std::size_t>(len));
  pos_ += kFrameHeaderBytes + static_cast<std::size_t>(len);
  return Status::kFrame;
}

// ---------------------------------------------------------------------------
// Message payload codecs
// ---------------------------------------------------------------------------

std::string encode_task_assign(const TaskAssignMsg& m) {
  return wire::encode(m);
}
bool decode_task_assign(std::string_view in, TaskAssignMsg& out) {
  return wire::decode(in, out);
}
std::string encode_outcome_delivery(const OutcomeDeliveryMsg& m) {
  return wire::encode(m);
}
bool decode_outcome_delivery(std::string_view in, OutcomeDeliveryMsg& out) {
  return wire::decode(in, out);
}
std::string encode_violation(const ViolationMsg& m) { return wire::encode(m); }
bool decode_violation(std::string_view in, ViolationMsg& out) {
  return wire::decode(in, out);
}
std::string encode_task_done(const TaskDoneMsg& m) { return wire::encode(m); }
bool decode_task_done(std::string_view in, TaskDoneMsg& out) {
  return wire::decode(in, out);
}
std::string encode_bootstrap_ack(const BootstrapAckMsg& m) {
  return wire::encode(m);
}
bool decode_bootstrap_ack(std::string_view in, BootstrapAckMsg& out) {
  return wire::decode(in, out);
}
std::string encode_heartbeat(const HeartbeatMsg& m) { return wire::encode(m); }
bool decode_heartbeat(std::string_view in, HeartbeatMsg& out) {
  return wire::decode(in, out);
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNoTask = std::numeric_limits<std::size_t>::max();

/// The worker's outbound side: one socket shared by the task loop (data
/// frames) and the heartbeat beacon thread, serialized by `mu` so frames
/// can never interleave mid-frame. `data_frames` counts outbound data frames
/// over the worker's lifetime — the index FaultPlan directives key on.
struct WorkerIo {
  int fd = -1;
  std::mutex mu;
  WorkerFaults faults;
  std::uint64_t data_frames = 0;
};

/// Ships one data frame, acting out any fault the plan schedules for it.
/// false = the coordinator is unreachable (the worker exits).
bool send_data_frame(WorkerIo& io, MsgType type, const std::string& payload) {
  std::string out;
  encode_frame(out, type, payload);
  const std::uint64_t frame_no = ++io.data_frames;
  const WorkerFaults& f = io.faults;
  if (f.hang_at_frame == frame_no && f.hang_ms > 0) {
    // Slow-but-alive: the beacon thread keeps heartbeating (lock not held),
    // so the coordinator must NOT escalate past the probe for this one.
    usleep(static_cast<useconds_t>(f.hang_ms) * 1000);
  }
  std::lock_guard<std::mutex> lock(io.mu);
  if (f.wedge_at_frame == frame_no) {
    // Alive-but-stuck: holding the write lock stalls the beacon thread too,
    // so heartbeats stop — exactly the failure the hard deadline exists for.
    if (f.wedge_ms == 0) {
      for (;;) pause();  // wedge forever; only SIGKILL ends this
    }
    usleep(static_cast<useconds_t>(f.wedge_ms) * 1000);
  }
  if (f.crash_at_frame == frame_no) _exit(9);
  if (f.torn_at_frame == frame_no) {
    // Half a frame, then death: the coordinator's decoder must wait for the
    // rest, see EOF instead, and take the reassignment path — never parse.
    (void)write_all(io.fd, out.data(), out.size() / 2);
    _exit(9);
  }
  if (f.stall_at_frame == frame_no && f.stall_ms > 0) {
    // Stalled peer: the connection goes fully quiet (the write lock is held,
    // so heartbeats stop too) without the process dying — the idle-deadline
    // and keepalive paths are what notice this one.
    usleep(static_cast<useconds_t>(f.stall_ms) * 1000);
  }
  if (f.drop_conn_at_frame == frame_no) {
    // Connection death with a surviving process: a TCP worker daemon goes
    // back to its accept loop, so recovery is reconnect + re-bootstrap, not
    // respawn.
    shutdown(io.fd, SHUT_RDWR);
    return false;
  }
  if (f.torn_tcp_at_frame == frame_no) {
    // Torn stream, surviving process: half a frame then a hard close. The
    // coordinator must poison the stream (never parse the torn frame) and
    // reassign; the worker is reachable again immediately.
    (void)write_all(io.fd, out.data(), out.size() / 2);
    shutdown(io.fd, SHUT_RDWR);
    return false;
  }
  if (!f.short_writes) {
    return write_all(io.fd, out.data(), out.size(), nullptr, f.eintr_burst);
  }
  // shortw: dribble the frame out in tiny pieces so the coordinator's
  // decoder reassembles across many reads.
  const char* data = out.data();
  std::size_t n = out.size();
  while (n > 0) {
    const std::size_t chunk = n < 7 ? n : 7;
    if (!write_all(io.fd, data, chunk, nullptr, f.eintr_burst)) return false;
    data += chunk;
    n -= chunk;
  }
  return true;
}

PecDoneMsg to_pec_done(const PecReport& r) {
  PecDoneMsg pd;
  pd.pec = r.pec;
  pd.budget_tripped = static_cast<std::uint8_t>(r.result.budget_tripped);
  pd.exhaustive = r.result.exhaustive ? 1 : 0;
  pd.translated = r.translated_from != kNoPec ? 1 : 0;
  pd.stats = r.result.stats;
  return pd;
}

}  // namespace

/// Exit codes are diagnostic only — the coordinator treats any death
/// identically (reassign + respawn).
int run_worker_session(
    int fd, const Network& net, const PecSet& pecs, std::size_t task_count,
    int heartbeat_interval_ms, const WorkerFaults& faults,
    const std::function<std::vector<PecReport>(std::size_t, OutcomeStore&)>&
        body) {
  WorkerIo io;
  io.fd = fd;
  io.faults = faults;

  // Heartbeat beacon: liveness + the sampled exploration progress counter on
  // a fixed cadence. It shares the frame write lock with data frames, so a
  // worker wedged holding that lock goes silent — which is the point. The
  // beacon sleeps in short slices and watches a stop flag so the session
  // joins it before returning: a detached beacon would outlive the session
  // and write stray heartbeats to a closed — or reused — fd (TCP workers
  // serve many sessions over their lifetime on recycled descriptors).
  std::atomic<bool> beacon_stop{false};
  std::thread beacon;
  if (heartbeat_interval_ms > 0) {
    beacon = std::thread([&io, &beacon_stop,
                          interval = heartbeat_interval_ms] {
      const int slice = std::clamp(interval, 1, 10);
      int since_beat = 0;
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        if (beacon_stop.load(std::memory_order_acquire)) return;
        since_beat += slice;
        if (since_beat < interval) continue;
        since_beat = 0;
        HeartbeatMsg m;
        m.progress = progress_counter().load(std::memory_order_relaxed);
        std::string out;
        encode_frame(out, MsgType::kHeartbeat, encode_heartbeat(m));
        std::lock_guard<std::mutex> lock(io.mu);
        if (!write_all(io.fd, out)) return;  // coordinator went away
      }
    });
  }
  const auto finish = [&beacon, &beacon_stop](int code) {
    beacon_stop.store(true, std::memory_order_release);
    if (beacon.joinable()) beacon.join();
    return code;
  };

  OutcomeStore store(net, pecs);
  FrameDecoder decoder;
  char buf[1 << 16];
  std::uint64_t reads = 0;  // 1-based read index slow-read@F keys on
  for (;;) {
    Frame frame;
    FrameDecoder::Status st;
    while ((st = decoder.next(frame)) == FrameDecoder::Status::kFrame) {
      switch (frame.type) {
        case MsgType::kShutdown:
          return finish(0);
        case MsgType::kOutcomeDelivery: {
          OutcomeDeliveryMsg msg;
          if (!decode_outcome_delivery(frame.payload, msg)) return finish(3);
          if (msg.pec >= pecs.pecs.size()) return finish(3);  // corrupt wire id
          std::vector<PecOutcome> outs;
          if (!store.deserialize(msg.outcomes_wire, outs)) return finish(3);
          store.put(msg.pec, std::move(outs));
          break;
        }
        case MsgType::kTaskAssign: {
          TaskAssignMsg msg;
          if (!decode_task_assign(frame.payload, msg)) return finish(3);
          if (msg.task >= task_count) return finish(3);  // corrupt wire id
          for (const PecId p : msg.evict) {
            if (p >= pecs.pecs.size()) return finish(3);
            store.evict(p);
          }
          std::vector<PecReport> results;
          try {
            results = body(static_cast<std::size_t>(msg.task), store);
          } catch (...) {
            return finish(4);
          }
          TaskDoneMsg done;
          done.task = msg.task;
          for (PecReport& r : results) {
            for (Violation& v : r.result.violations) {
              ViolationMsg vm;
              vm.pec = r.pec;
              vm.failed_links.assign(v.failures.ids().begin(),
                                     v.failures.ids().end());
              vm.message = std::move(v.message);
              vm.trail_text = std::move(v.trail_text);
              if (!send_data_frame(io, MsgType::kViolationReport,
                                   encode_violation(vm))) {
                return finish(2);
              }
            }
            if (store.has(r.pec)) {
              // The body published the outcomes into the local store (where
              // same-task mates and later tasks on this worker read them);
              // ship that single copy back to the coordinator.
              OutcomeDeliveryMsg od;
              od.pec = r.pec;
              od.outcomes_wire = store.serialize(store.get(r.pec));
              if (!send_data_frame(io, MsgType::kOutcomeDelivery,
                                   encode_outcome_delivery(od))) {
                return finish(2);
              }
            }
            done.pecs.push_back(to_pec_done(r));
          }
          if (!send_data_frame(io, MsgType::kTaskDone,
                               encode_task_done(done))) {
            return finish(2);
          }
          break;
        }
        default:
          return finish(3);  // worker never receives reports/results/beats
      }
    }
    if (st == FrameDecoder::Status::kError) return finish(3);
    ++reads;
    if (io.faults.slow_read_at == reads && io.faults.slow_read_ms > 0) {
      // Slow consumer: inbound frames back up while the worker sleeps. The
      // coordinator's dispatch writes must tolerate the full pipe.
      usleep(static_cast<useconds_t>(io.faults.slow_read_ms) * 1000);
    }
    const ssize_t r = read(fd, buf, sizeof(buf));
    if (r > 0) {
      decoder.feed(buf, static_cast<std::size_t>(r));
    } else if (r == 0) {
      return finish(0);  // coordinator went away: orderly orphan exit
    } else if (errno != EINTR) {
      return finish(2);
    }
  }
}

int compute_respawn_backoff_ms(int base_ms, int deaths) {
  // Saturating on purpose: the former `base << shift` overflowed int for a
  // large configured base (INT_MAX base, shift >= 1 → negative), and a
  // negative backoff re-arms the slot immediately — a busy fork loop against
  // a deterministically crashing worker. 64-bit intermediate + clamp keeps
  // every input in [0, 2000].
  const int shift = std::min(deaths > 0 ? deaths - 1 : 0, 6);
  const std::int64_t backoff = static_cast<std::int64_t>(base_ms) << shift;
  return static_cast<int>(std::clamp<std::int64_t>(backoff, 0, 2000));
}

namespace {

/// Checks one kTaskDone against its task and the violations stashed for it.
/// The completion must report every PEC of the task once, plus each task
/// PEC's class members once; a member is legitimately absent only when its
/// representative reported a violation under early stop (the worker skips
/// the class tail then, like any unscheduled task). A translated entry is a
/// hold nobody explored, so it is accepted only for a listed member whose
/// own entry and whose representative's entry are both clean: exhaustive, no
/// budget trip, no stashed violation. Anything else (unknown PECs,
/// duplicates, a dropped mandatory member, a forged translation) would
/// corrupt the merge or swallow stashed violations, so the caller poisons
/// the worker. On success `translated_from[k]` is the representative of
/// entry k when it is translated, kNoPec otherwise. Sorted lookups keep this
/// O(n log n) per completion.
bool check_task_done(const ShardTaskSpec& spec, const TaskDoneMsg& done,
                     const std::vector<ViolationMsg>& stash,
                     bool stop_on_violation,
                     std::vector<PecId>& translated_from) {
  // (pec, its representative) for every PEC the completion may report; a
  // task PEC is its own representative.
  std::vector<std::pair<PecId, PecId>> allowed;
  for (std::size_t i = 0; i < spec.pecs.size(); ++i) {
    allowed.emplace_back(spec.pecs[i], spec.pecs[i]);
    if (i >= spec.class_members.size()) continue;
    for (const PecId m : spec.class_members[i]) {
      allowed.emplace_back(m, spec.pecs[i]);
    }
  }
  std::sort(allowed.begin(), allowed.end());
  std::vector<std::pair<PecId, std::size_t>> seen;  // (pec, entry index)
  seen.reserve(done.pecs.size());
  for (std::size_t k = 0; k < done.pecs.size(); ++k) {
    seen.emplace_back(done.pecs[k].pec, k);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<PecId> violated;
  for (const ViolationMsg& v : stash) violated.push_back(v.pec);
  std::sort(violated.begin(), violated.end());

  const auto entry = [&](PecId p) -> const PecDoneMsg* {
    const auto it = std::lower_bound(seen.begin(), seen.end(),
                                     std::pair<PecId, std::size_t>{p, 0});
    return it != seen.end() && it->first == p ? &done.pecs[it->second]
                                              : nullptr;
  };
  const auto clean = [&](const PecDoneMsg* d) {
    return d != nullptr && d->exhaustive == 1 && d->budget_tripped == 0 &&
           !std::binary_search(violated.begin(), violated.end(), d->pec);
  };
  translated_from.assign(done.pecs.size(), kNoPec);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    const PecId p = seen[k].first;
    if (k > 0 && seen[k - 1].first == p) return false;  // duplicate
    const auto it = std::lower_bound(allowed.begin(), allowed.end(),
                                     std::pair<PecId, PecId>{p, 0});
    if (it == allowed.end() || it->first != p) return false;  // unknown PEC
    const PecDoneMsg& d = done.pecs[seen[k].second];
    if (d.translated == 0) continue;
    const PecId rep = it->second;
    if (rep == p || !clean(&d) || !clean(entry(rep))) return false;
    translated_from[seen[k].second] = rep;
  }
  for (std::size_t i = 0; i < spec.pecs.size(); ++i) {
    if (entry(spec.pecs[i]) == nullptr) return false;
    if (i >= spec.class_members.size()) continue;
    if (stop_on_violation &&
        std::binary_search(violated.begin(), violated.end(), spec.pecs[i])) {
      continue;  // members optional behind a violated representative
    }
    for (const PecId m : spec.class_members[i]) {
      if (entry(m) == nullptr) return false;
    }
  }
  return true;
}

struct WorkerSlot {
  pid_t pid = -1;  ///< -1 for transports without a local process (TCP)
  int fd = -1;
  bool alive = false;
  bool acked = false;  ///< kBootstrapAck carried the plan hash: takes tasks
  std::size_t current = kNoTask;
  std::vector<std::uint8_t> delivered;  ///< per-PecId: outcomes on the worker
  std::deque<PecId> pending_evictions;  ///< piggybacked on the next assign
  std::vector<ViolationMsg> stash;      ///< violations of the in-flight task
  FrameDecoder decoder;

  // -- supervision ----------------------------------------------------------
  int generation = 0;  ///< respawn count of this slot (FaultPlan scoping)
  /// Current task start; until the ack, when the connection was started.
  std::chrono::steady_clock::time_point assigned_at{};
  std::chrono::steady_clock::time_point last_beat{};    ///< last kHeartbeat
  std::uint64_t last_progress = 0;  ///< progress counter at last change
  std::chrono::steady_clock::time_point last_progress_time{};
  bool probed = false;  ///< soft-deadline probe already fired for this task
  std::chrono::steady_clock::time_point respawn_after{};  ///< backoff gate
  /// Consecutive failed starts since the last acked incarnation — a remote
  /// worker that is down paces the reconnect attempts up the same
  /// exponential ladder as crash respawns instead of hammering every 200 ms.
  int start_failures = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

ShardRunResult run_sharded_task_graph(
    const Network& net, const PecSet& pecs, const ShardRunOptions& opts,
    const TaskGraph& graph, const std::vector<ShardTaskSpec>& tasks,
    WorkerTransport& tp,
    const std::function<std::string(std::size_t slot, int generation)>&
        bootstrap,
    std::uint64_t plan_hash) {
  ShardRunResult result;
  const std::size_t total = graph.size();
  const int shards = std::max(1, opts.shards);
  result.stats.tasks_per_shard.assign(static_cast<std::size_t>(shards), 0);
  if (tasks.size() != total) {
    result.error = "task spec count does not match graph size";
    return result;
  }
  if (total == 0) {
    result.ok = true;
    return result;
  }

  std::vector<std::size_t> waiting = graph.waiting_on;
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < total; ++i) {
    if (waiting[i] == 0) ready.push_back(i);
  }

  // dep_refs[pec] = incomplete tasks that still need pec's outcomes; when it
  // hits zero the coordinator drops its wire copy and tells every worker
  // holding a delivered copy to evict (bounded stores on all sides).
  std::map<PecId, std::size_t> dep_refs;
  for (const ShardTaskSpec& t : tasks) {
    for (const PecId p : t.deps) ++dep_refs[p];
  }
  std::map<PecId, std::string> outcome_wire;

  std::vector<WorkerSlot> workers(static_cast<std::size_t>(shards));
  std::vector<int> reassignments(total, 0);

  /// Starts a connection for `slot` and opens it with kBootstrap; the ack
  /// arrives later in the poll loop. false = a failed start.
  const auto spawn_worker = [&](std::size_t slot) -> bool {
    WorkerSlot& w = workers[slot];
    pid_t pid = -1;
    const int fd = tp.start(slot, pid);
    if (fd < 0) return false;
    const int flags = fcntl(fd, F_GETFL, 0);
    (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    std::string out;
    encode_frame(out, MsgType::kBootstrap, bootstrap(slot, w.generation));
    bool stalled = false;
    if (!write_all(fd, out, &stalled)) {
      if (stalled) ++result.stats.write_timeouts;
      tp.terminate(slot, pid);
      close(fd);
      tp.reap(slot, pid);
      return false;
    }
    ++result.stats.frames_sent;
    result.stats.bytes_sent += out.size();
    w.pid = pid;
    w.fd = fd;
    w.alive = true;
    w.acked = false;
    w.current = kNoTask;
    w.delivered.assign(pecs.pecs.size(), 0);
    w.pending_evictions.clear();
    w.stash.clear();
    w.decoder = FrameDecoder();
    ++w.generation;
    const auto now = std::chrono::steady_clock::now();
    w.assigned_at = now;
    w.last_beat = now;
    w.last_progress = 0;
    w.last_progress_time = now;
    w.probed = false;
    return true;
  };

  /// A failed start (no connection, or no ack) climbs the same capped ladder
  /// as crash respawns: a TCP worker that is down is probed at 200, 400, ...
  /// 2000 ms, not every poll slice. With no acked worker left, give up.
  const auto start_failed = [&](std::size_t slot, const char* why) {
    WorkerSlot& w = workers[slot];
    w.respawn_after = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(compute_respawn_backoff_ms(
                          200, ++w.start_failures));
    const bool any_acked =
        std::any_of(workers.begin(), workers.end(),
                    [](const WorkerSlot& o) { return o.alive && o.acked; });
    if (!any_acked && result.error.empty()) {
      result.error = "no shard worker started (worker " +
                     std::to_string(slot) + ": " + why + ")";
    }
  };

  std::size_t completed = 0;
  std::size_t inflight = 0;
  bool stopping = false;

  const auto handle_worker_death =
      [&](std::size_t slot,
          const char* why = "closed the connection before its bootstrap ack") {
    WorkerSlot& w = workers[slot];
    if (!w.alive) return;
    w.alive = false;
    close(w.fd);
    w.fd = -1;
    tp.reap(slot, w.pid);
    w.pid = -1;
    if (!w.acked) {
      start_failed(slot, why);  // no task was in flight
      return;
    }
    if (w.current != kNoTask) {
      --inflight;
      ++result.stats.tasks_reassigned;
      if (++reassignments[w.current] > opts.max_reassignments_per_task) {
        stopping = true;
        result.error = "task " + std::to_string(w.current) +
                       " exceeded the reassignment cap (worker keeps dying)";
      } else {
        ready.push_front(w.current);  // rescue the in-flight task
      }
      w.current = kNoTask;
    }
    w.stash.clear();
    // Exponential respawn backoff: the k-th death of this slot gates its
    // respawn by base << min(k-1, 6), saturating and capped at 2 s, so a
    // flapping worker (deterministic crash, bad host) cannot monopolize the
    // coordinator with respawn storms. generation was already bumped at
    // spawn, so the first death backs off by the base alone.
    const int deaths = w.generation;  // spawns so far == deaths now
    const int backoff = compute_respawn_backoff_ms(opts.respawn_backoff_ms,
                                                   deaths);
    w.respawn_after = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(backoff);
  };

  const auto poison_worker = [&](std::size_t slot, const char* why) {
    ++result.stats.decode_errors;
    std::fprintf(stderr, "plankton shard coordinator: worker %zu poisoned (%s)\n",
                 slot, why);
    tp.terminate(slot, workers[slot].pid);
    handle_worker_death(slot, why);
  };

  const auto release_dep_ref = [&](PecId p) {
    const auto it = dep_refs.find(p);
    if (it == dep_refs.end() || --it->second > 0) return;
    dep_refs.erase(it);
    outcome_wire.erase(p);
    for (WorkerSlot& w : workers) {
      if (w.alive && w.delivered[p] != 0) w.pending_evictions.push_back(p);
    }
  };

  /// Ships the missing upstream outcomes plus the assignment to one worker.
  /// false = the worker died underneath us; the task stays undispatched.
  const auto try_dispatch = [&](std::size_t task, std::size_t slot) -> bool {
    WorkerSlot& w = workers[slot];
    std::string out;
    for (const PecId dep : tasks[task].deps) {
      if (w.delivered[dep] != 0) {
        ++result.stats.deliveries_skipped;
        continue;
      }
      // A dependency that recorded no outcomes has nothing to ship — mark it
      // delivered anyway so we never re-check.
      const auto it = outcome_wire.find(dep);
      if (it != outcome_wire.end()) {
        OutcomeDeliveryMsg od;
        od.pec = dep;
        od.outcomes_wire = it->second;
        const std::string payload = encode_outcome_delivery(od);
        encode_frame(out, MsgType::kOutcomeDelivery, payload);
        result.stats.outcome_bytes_sent += payload.size();
        ++result.stats.frames_sent;
      }
      w.delivered[dep] = 1;
    }
    TaskAssignMsg assign;
    assign.task = task;
    while (!w.pending_evictions.empty()) {
      const PecId p = w.pending_evictions.front();
      w.pending_evictions.pop_front();
      w.delivered[p] = 0;
      assign.evict.push_back(p);
    }
    encode_frame(out, MsgType::kTaskAssign, encode_task_assign(assign));
    ++result.stats.frames_sent;
    result.stats.bytes_sent += out.size();
    bool stalled = false;
    if (!write_all(w.fd, out, &stalled)) {
      if (stalled) ++result.stats.write_timeouts;
      handle_worker_death(slot);
      return false;
    }
    w.current = task;
    const auto now = std::chrono::steady_clock::now();
    w.assigned_at = now;
    w.last_progress_time = now;  // the progress clock restarts per task
    w.probed = false;
    ++inflight;
    return true;
  };

  /// Drains one worker's socket; returns false when the worker died or the
  /// run hit a coordinator error. Frames ahead of an EOF (a refusal, say)
  /// are handled before the death.
  const auto drain_worker = [&](std::size_t slot) -> bool {
    WorkerSlot& w = workers[slot];
    char buf[1 << 16];
    bool closed = false;
    for (;;) {
      const ssize_t r = read(w.fd, buf, sizeof(buf));
      if (r > 0) {
        result.stats.bytes_received += static_cast<std::uint64_t>(r);
        w.decoder.feed(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r < 0 && errno == EINTR) continue;
      closed = true;  // EOF or hard error
      break;
    }
    Frame frame;
    FrameDecoder::Status st;
    while ((st = w.decoder.next(frame)) == FrameDecoder::Status::kFrame) {
      ++result.stats.frames_received;
      if (!w.acked && frame.type != MsgType::kBootstrapAck) {
        poison_worker(slot, "sent a frame before its bootstrap ack");
        return false;
      }
      switch (frame.type) {
        case MsgType::kBootstrapAck: {
          BootstrapAckMsg ack;
          if (w.acked || !decode_bootstrap_ack(frame.payload, ack)) {
            poison_worker(slot, "bad bootstrap ack");
            return false;
          }
          if (ack.ok == 0 || ack.plan_hash != plan_hash) {
            result.error = "worker " + std::to_string(slot) +
                           " refused its bootstrap (" +
                           (ack.ok == 0 ? ack.error : "plan hash mismatch") +
                           ")";
            return false;
          }
          w.acked = true;
          w.start_failures = 0;
          w.last_beat = std::chrono::steady_clock::now();  // beacon starts now
          break;
        }
        case MsgType::kHeartbeat: {
          HeartbeatMsg hb;
          if (!decode_heartbeat(frame.payload, hb)) {
            poison_worker(slot, "bad heartbeat");
            return false;
          }
          ++result.stats.heartbeats;
          const auto now = std::chrono::steady_clock::now();
          w.last_beat = now;
          if (hb.progress != w.last_progress) {
            w.last_progress = hb.progress;
            w.last_progress_time = now;
          }
          break;
        }
        case MsgType::kViolationReport: {
          ViolationMsg v;
          bool links_ok = decode_violation(frame.payload, v);
          for (const LinkId l : v.failed_links) {
            links_ok = links_ok && l < net.topo.link_count();
          }
          if (!links_ok || v.pec >= pecs.pecs.size() || w.current == kNoTask) {
            poison_worker(slot, "bad violation report");
            return false;
          }
          w.stash.push_back(std::move(v));
          break;
        }
        case MsgType::kOutcomeDelivery: {
          OutcomeDeliveryMsg od;
          if (!decode_outcome_delivery(frame.payload, od) ||
              od.pec >= pecs.pecs.size() || w.current == kNoTask) {
            poison_worker(slot, "bad outcome delivery");
            return false;
          }
          // Same quantity as outcome_bytes_sent (the full delivery payload),
          // so the two directions are comparable in the printed stats.
          result.stats.outcome_bytes_received += frame.payload.size();
          w.delivered[od.pec] = 1;  // the producer keeps a local copy
          if (dep_refs.contains(od.pec)) {
            outcome_wire[od.pec] = std::move(od.outcomes_wire);
          }
          break;
        }
        case MsgType::kTaskDone: {
          TaskDoneMsg done;
          bool pecs_ok = decode_task_done(frame.payload, done) &&
                         w.current != kNoTask && done.task == w.current;
          std::vector<PecId> translated_from;
          if (pecs_ok) {
            pecs_ok = check_task_done(tasks[w.current], done, w.stash,
                                      opts.stop_on_violation, translated_from);
          }
          if (!pecs_ok) {
            poison_worker(slot, "bad task completion");
            return false;
          }
          const std::size_t task = w.current;
          for (std::size_t k = 0; k < done.pecs.size(); ++k) {
            const PecDoneMsg& p = done.pecs[k];
            PecReport rep;
            rep.pec = p.pec;
            rep.pec_str = pecs.pecs[p.pec].str();
            rep.translated_from = translated_from[k];
            rep.result.budget_tripped = static_cast<BudgetKind>(p.budget_tripped);
            rep.result.exhaustive = p.exhaustive != 0;
            rep.result.stats = p.stats;
            for (ViolationMsg& v : w.stash) {
              if (v.pec != p.pec) continue;
              Violation viol;
              viol.failures = FailureSet(net.topo.link_count());
              for (const LinkId l : v.failed_links) viol.failures.fail(l);
              viol.message = std::move(v.message);
              viol.trail_text = std::move(v.trail_text);
              rep.result.violations.push_back(std::move(viol));
            }
            if (!rep.result.violations.empty() && opts.stop_on_violation) {
              stopping = true;
            }
            result.reports.push_back(std::move(rep));
          }
          w.stash.clear();
          w.current = kNoTask;
          --inflight;
          ++completed;
          ++result.stats.tasks_per_shard[slot];
          for (const std::size_t d : graph.dependents[task]) {
            if (--waiting[d] == 0) ready.push_back(d);
          }
          for (const PecId dep : tasks[task].deps) release_dep_ref(dep);
          break;
        }
        default:
          poison_worker(slot, "unexpected message from worker");
          return false;
      }
    }
    if (st == FrameDecoder::Status::kError) {
      poison_worker(slot, w.decoder.error().c_str());
      return false;
    }
    if (closed) {
      handle_worker_death(slot);
      return false;
    }
    return true;
  };

  for (std::size_t s = 0; s < workers.size() && result.error.empty(); ++s) {
    if (!spawn_worker(s)) start_failed(s, "could not be started");
  }

  // The first dispatch waits until the initial pool has acked or failed its
  // start, so the first assignments follow slot order, not ack order.
  bool starting = true;
  while (result.error.empty()) {
    starting = starting && std::any_of(workers.begin(), workers.end(),
                                       [](const WorkerSlot& w) {
                                         return w.alive && !w.acked;
                                       });
    // Dispatch: lowest-index ready task to the idle worker already holding
    // most of its upstream outcomes (ties to the lowest slot).
    while (!stopping && !starting && !ready.empty()) {
      std::size_t best = workers.size();
      std::size_t best_overlap = 0;
      const std::size_t task = ready.front();
      for (std::size_t s = 0; s < workers.size(); ++s) {
        const WorkerSlot& w = workers[s];
        if (!w.alive || !w.acked || w.current != kNoTask) continue;
        std::size_t overlap = 0;
        for (const PecId dep : tasks[task].deps) {
          overlap += w.delivered[dep] != 0 ? 1 : 0;
        }
        if (best == workers.size() || overlap > best_overlap) {
          best = s;
          best_overlap = overlap;
        }
      }
      if (best == workers.size()) break;  // everyone busy (or dead)
      ready.pop_front();
      if (!try_dispatch(task, best)) ready.push_front(task);
    }

    if (inflight == 0 && (ready.empty() || stopping)) break;

    // Bootstrap bound, heartbeats on or off: a connection that has not acked
    // within kBootstrapAckMs is killed as a failed start.
    const auto ack_now = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < workers.size(); ++s) {
      WorkerSlot& w = workers[s];
      if (!w.alive || w.acked ||
          ack_now - w.assigned_at <=
              std::chrono::milliseconds(kBootstrapAckMs)) {
        continue;
      }
      std::fprintf(stderr,
                   "plankton shard coordinator: worker %zu did not ack its "
                   "bootstrap within %dms, killing\n",
                   s, kBootstrapAckMs);
      tp.terminate(s, w.pid);
      handle_worker_death(s, "did not ack its bootstrap in time");
    }
    if (!result.error.empty()) break;

    // Supervision: the escalation ladder over every in-flight task. With
    // heartbeats on, liveness has two independent signals — the beacon
    // itself (a wedged worker holding the frame-write lock goes silent) and
    // the exploration progress counter the beacons carry (an alive worker
    // stuck outside exploration beats on with a flat counter). Soft
    // deadline: one probe, recorded and logged, no action — slow workers
    // that still advance are left alone. Hard deadline on either signal:
    // SIGKILL into the same reap/reassign path a crash takes.
    if (opts.heartbeat_interval_ms > 0 && opts.hard_deadline_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const auto soft = std::chrono::milliseconds(opts.soft_deadline_ms);
      const auto hard = std::chrono::milliseconds(opts.hard_deadline_ms);
      for (std::size_t s = 0; s < workers.size(); ++s) {
        WorkerSlot& w = workers[s];
        if (!w.alive || w.current == kNoTask) continue;
        const auto beat_age = now - w.last_beat;
        const auto progress_age = now - w.last_progress_time;
        if (beat_age > hard || progress_age > hard) {
          ++result.stats.hang_kills;
          std::fprintf(stderr,
                       "plankton shard coordinator: worker %zu stuck on task "
                       "%zu (%s for %lldms), killing\n",
                       s, w.current,
                       beat_age > hard ? "no heartbeat" : "no progress",
                       static_cast<long long>(
                           std::chrono::duration_cast<std::chrono::milliseconds>(
                               beat_age > hard ? beat_age : progress_age)
                               .count()));
          tp.terminate(s, w.pid);
          handle_worker_death(s);
          continue;
        }
        if (!w.probed && (beat_age > soft || progress_age > soft)) {
          w.probed = true;
          ++result.stats.progress_probes;
          std::fprintf(stderr,
                       "plankton shard coordinator: worker %zu slow on task "
                       "%zu (probe; hard deadline %dms)\n",
                       s, w.current, opts.hard_deadline_ms);
        }
      }
      if (!result.error.empty()) break;  // a hang-kill exhausted the cap
    }

    // Crash recovery: keep the pool at full strength while work remains,
    // honoring each slot's respawn backoff (a flapping slot waits it out).
    const auto respawn_now = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < workers.size() && result.error.empty(); ++s) {
      if (workers[s].alive || (ready.empty() && inflight == 0) ||
          respawn_now < workers[s].respawn_after) {
        continue;
      }
      if (spawn_worker(s)) {
        ++result.stats.workers_respawned;
      } else {
        start_failed(s, "could not be restarted");
      }
    }
    if (!result.error.empty()) break;

    std::vector<pollfd> pfds;
    std::vector<std::size_t> slot_of;
    for (std::size_t s = 0; s < workers.size(); ++s) {
      if (!workers[s].alive) continue;
      pfds.push_back({workers[s].fd, POLLIN, 0});
      slot_of.push_back(s);
    }
    // Poll in slices no coarser than the heartbeat cadence so supervision
    // reacts within about one interval (and an all-dead pool in backoff
    // still sleeps instead of spinning).
    int poll_ms = 200;
    if (opts.heartbeat_interval_ms > 0) {
      poll_ms = std::clamp(opts.heartbeat_interval_ms, 10, 200);
    }
    const int n = poll(pfds.empty() ? nullptr : pfds.data(),
                       static_cast<nfds_t>(pfds.size()), poll_ms);
    if (n < 0 && errno != EINTR) {
      result.error = "poll failed";
      break;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        (void)drain_worker(slot_of[i]);
      }
    }
  }

  // Shutdown: orderly for live workers, forceful on the error path (they may
  // be mid-task and deaf to the socket) and for workers still bootstrapping.
  std::string bye;
  encode_frame(bye, MsgType::kShutdown, "");
  for (std::size_t s = 0; s < workers.size(); ++s) {
    WorkerSlot& w = workers[s];
    if (!w.alive) continue;
    if (!result.error.empty() || !w.acked) {
      tp.terminate(s, w.pid);
    } else {
      (void)write_all(w.fd, bye);
      ++result.stats.frames_sent;
      result.stats.bytes_sent += bye.size();
    }
    close(w.fd);
    w.fd = -1;
    tp.reap(s, w.pid);
    w.pid = -1;
    w.alive = false;
  }

  result.stopped_early = stopping && result.error.empty();
  result.ok = result.error.empty();
  return result;
}

}  // namespace plankton::sched
