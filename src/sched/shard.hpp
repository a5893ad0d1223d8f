// Multi-process shard coordinator for the PEC task graph (paper §6, Fig. 7b
// — the scalability claim past one address space; ROADMAP "multi-process
// sharding").
//
// The coordinator partitions the SCC-ordered task graph across N worker
// processes, forked or remote (sched/transport.hpp). Every worker rebuilds
// the plan from data and runs each task through the task body the
// in-process scheduler runs, so both produce the same PecReports; only
// *results* cross the process boundary after the bootstrap:
//
//   coordinator ──kBootstrap─────────▶ worker   config, policy, classes, ...
//   worker ──kBootstrapAck───────────▶ coordinator   plan hash (or refusal)
//   coordinator ──kOutcomeDelivery*──▶ worker   upstream PEC outcomes the
//                                               assigned task depends on
//                                               (OutcomeStore wire format)
//   coordinator ──kTaskAssign────────▶ worker   task index + evictable PECs
//   worker ──kViolationReport*───────▶ coordinator   one per counterexample
//   worker ──kOutcomeDelivery*───────▶ coordinator   recorded outcomes
//   worker ──kTaskDone───────────────▶ coordinator   per-PEC verdict + stats
//   worker ──kHeartbeat*─────────────▶ coordinator   liveness + progress
//   coordinator ──kShutdown──────────▶ worker   clean exit
//
// Every message is framed (magic, version, type, 64-bit payload length) and
// decoded with bounds checks: a truncated, corrupt, or absurdly-sized frame
// poisons the decoder instead of the process (tests fuzz this surface).
//
// Fault tolerance: the coordinator is the first failure boundary in the
// codebase. A worker that dies mid-task (crash, SIGKILL, poisoned stream) is
// detected via socket EOF, reaped, and replaced; its in-flight task is
// reassigned. A worker that is alive but *stuck* — the failure EOF can never
// see — is caught by the supervision ladder: heartbeats carry the
// exploration progress counter, a soft per-task deadline triggers a progress
// probe, and the hard deadline SIGKILLs the worker into the same
// reap/reassign path (with exponential backoff on respawning a flapping
// slot). Exploration is deterministic per task, so the merged verdict,
// violation multiset, and state counts stay bit-identical to a
// single-process run regardless of shard count, assignment, or crashes. A
// per-task reassignment cap turns a deterministically-crashing task into a
// coordinator-level error rather than a respawn loop.
//
// Assignment is dependency-aware: tasks become eligible in SCC condensation
// order (sched/deps numbering) and an eligible task prefers the idle worker
// that already holds the most of its upstream outcomes, minimizing
// bytes-on-the-wire (ShardStats records what actually moved).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/stats.hpp"
#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"
#include "sched/fault.hpp"
#include "sched/outcome_store.hpp"
#include "sched/wire.hpp"
#include "sched/work_stealing.hpp"

namespace plankton::sched {

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

enum class MsgType : std::uint16_t {
  kTaskAssign = 1,       ///< coordinator → worker: task index + evict list
  kOutcomeDelivery = 2,  ///< either direction: one PEC's outcome batch
  kViolationReport = 3,  ///< worker → coordinator: one counterexample
  kTaskDone = 4,         ///< worker → coordinator: per-PEC verdicts + stats
  kShutdown = 5,         ///< coordinator → worker: exit cleanly; also the
                         ///< serve client's clean-disconnect request
  kHeartbeat = 6,        ///< worker → coordinator: liveness + progress counter

  // Verification-as-a-service frames (src/serve/): the daemon speaks the
  // same PKS1 framing over its Unix/TCP socket, so one decoder — and one
  // fuzz surface — covers both transports. Payload codecs live in
  // serve/serve.hpp next to the daemon that owns them.
  kLoadNet = 7,          ///< client → daemon: config text to make resident
  kApplyDelta = 8,       ///< client → daemon: add/del config-line delta ops
  kQuery = 9,            ///< client → daemon: policy spec to verify
  kVerdictReply = 10,    ///< daemon → client: verdict + counters + violations
  kCacheStats = 11,      ///< empty payload: probe; non-empty: counter reply

  // Worker bootstrap: every shard worker rebuilds its plan from a blob.
  kBootstrap = 12,       ///< coordinator → worker: serialized net/policy/plan
                         ///< blob (codec in serve/serve.hpp — render_config +
                         ///< options flattening live with the daemon)
  kBootstrapAck = 13,    ///< worker → coordinator: plan hash or refusal
};

inline constexpr std::uint32_t kFrameMagic = 0x504b5331;  // "PKS1"
/// Bumped on every payload layout change (2: the three-flag PecDoneMsg; 3:
/// kBootstrap carries ExploreOptions whole; 4: its explore block drops the
/// retired engine seed, split and restart fields; 5: kBootstrap ships the
/// dedup class list in place of the pec_dedup flag; 6: the SearchStats block
/// of a kTaskDone PEC entry carries bytes_outcomes).
inline constexpr std::uint16_t kFrameVersion = 6;
/// magic + version + type + payload length.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 2 + 2 + 8;
/// Ceiling for one frame's payload. Anything larger is treated as a corrupt
/// length field (a single PEC's outcome batch is orders of magnitude smaller
/// on every workload we run).
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::string payload;
};

/// Appends one framed message to `out`.
void encode_frame(std::string& out, MsgType type, std::string_view payload);

/// Writes all `n` bytes to a socket — the one send loop behind every PKS1
/// writer (shard coordinator and workers, TCP bootstrap, serve daemon).
/// MSG_NOSIGNAL: a dead peer surfaces as EPIPE, never SIGPIPE. EINTR and
/// EAGAIN are retried under bounds (1024 EINTRs in a row; 10 s without
/// progress on a non-blocking fd), so a wedged peer or a signal storm
/// degrades to a failed write instead of a hang. On failure, `stalled`
/// (when given) reports whether a retry bound ran out rather than a hard
/// socket error. `synthetic_eintr` injects that many fake EINTR results
/// before the first real send (the FaultPlan eintr@N storm).
bool write_all(int fd, const char* data, std::size_t n, bool* stalled = nullptr,
               std::uint32_t synthetic_eintr = 0);
inline bool write_all(int fd, std::string_view s, bool* stalled = nullptr) {
  return write_all(fd, s.data(), s.size(), stalled);
}

/// Incremental, bounds-checked frame parser over a byte stream. feed() bytes
/// as they arrive; next() pops complete frames. A malformed header (bad
/// magic/version, unknown type, a length above kMaxFramePayload) moves the
/// decoder into a permanent error state — the stream cannot be trusted past
/// the first lie.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n);

  enum class Status : std::uint8_t {
    kNeedMore = 0,  ///< no complete frame buffered
    kFrame = 1,     ///< `out` holds the next frame
    kError = 2,     ///< stream poisoned; error() says why
  };
  Status next(Frame& out);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  bool shutdown_seen_ = false;  ///< kShutdown is terminal; later frames poison
  std::string error_;
};

// ---------------------------------------------------------------------------
// Message payloads. Each struct's wire_fields lists its fields in wire order;
// encode_* and decode_* both walk that list (sched/wire.hpp), so decode_* is
// the exact inverse of encode_*. It returns false on truncated/corrupt/
// hostile input and leaves the output default-initialized, and every length
// field is validated against the bytes actually present before it sizes an
// allocation.
// ---------------------------------------------------------------------------

struct TaskAssignMsg {
  std::uint64_t task = 0;
  /// PECs whose outcomes the receiving worker may release: no incomplete
  /// task depends on them anymore (coordinator-side refcount hit zero).
  std::vector<PecId> evict;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.task, s.evict);
  }
};

struct OutcomeDeliveryMsg {
  PecId pec = 0;
  /// OutcomeStore::serialize() bytes — the nested PKO1 format.
  std::string outcomes_wire;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.pec, s.outcomes_wire);
  }
};

struct ViolationMsg {
  PecId pec = 0;
  std::vector<LinkId> failed_links;
  std::string message;
  std::string trail_text;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.pec, s.failed_links, s.message, s.trail_text);
  }
};

/// Per-PEC completion. "Violated" does not travel here: it is derived from
/// the kViolationReport frames the worker sent for the PEC ahead of its
/// kTaskDone (the coordinator stashes them per PEC).
struct PecDoneMsg {
  PecId pec = 0;
  /// BudgetKind of the budget that ended the search early (0 = none).
  std::uint8_t budget_tripped = 0;
  /// 0 when coverage was probabilistic (lossy/degraded visited backend).
  std::uint8_t exhaustive = 1;
  /// Verdict translated from the PEC's class representative (batch PEC
  /// verification) rather than explored natively; the stats are the
  /// representative's and must not be double-counted into run totals.
  std::uint8_t translated = 0;
  SearchStats stats;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.pec, wire::at_most(s.budget_tripped, BudgetKind::kMemory),
             wire::at_most(s.exhaustive, 1), wire::at_most(s.translated, 1),
             s.stats);
  }
};

/// One PecDoneMsg's exact wire size (it has no variable-length field).
inline constexpr std::size_t kPecDoneWireBytes = wire::min_bytes<PecDoneMsg>;

struct TaskDoneMsg {
  std::uint64_t task = 0;
  std::vector<PecDoneMsg> pecs;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.task, s.pecs);
  }
};

[[nodiscard]] std::string encode_task_assign(const TaskAssignMsg& m);
[[nodiscard]] bool decode_task_assign(std::string_view in, TaskAssignMsg& out);
[[nodiscard]] std::string encode_outcome_delivery(const OutcomeDeliveryMsg& m);
[[nodiscard]] bool decode_outcome_delivery(std::string_view in,
                                           OutcomeDeliveryMsg& out);
[[nodiscard]] std::string encode_violation(const ViolationMsg& m);
[[nodiscard]] bool decode_violation(std::string_view in, ViolationMsg& out);
[[nodiscard]] std::string encode_task_done(const TaskDoneMsg& m);
[[nodiscard]] bool decode_task_done(std::string_view in, TaskDoneMsg& out);

/// Worker liveness beacon, written by a dedicated worker thread on a fixed
/// cadence (ShardRunOptions::heartbeat_interval_ms) and piggybacked on the
/// PKS1 framing. `progress` samples the worker's exploration liveness
/// counter (checker/progress.hpp): the coordinator distinguishes
/// slow-but-advancing workers (counter moves) from alive-but-stuck ones
/// (beats arrive, counter flat) from wedged ones (beats stop — the beacon
/// thread shares the frame-write lock with data frames, so a worker stuck
/// holding it goes silent).
struct HeartbeatMsg {
  std::uint64_t progress = 0;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.progress);
  }
};

[[nodiscard]] std::string encode_heartbeat(const HeartbeatMsg& m);
[[nodiscard]] bool decode_heartbeat(std::string_view in, HeartbeatMsg& out);

/// Worker's answer to a kBootstrap blob: either the fingerprint of the plan
/// it reconstructed — a mismatch is a coordinator error, since a diverging
/// plan would silently verify the wrong PECs — or a refusal with a
/// human-readable reason.
struct BootstrapAckMsg {
  std::uint8_t ok = 0;
  std::string error;
  std::uint64_t plan_hash = 0;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(wire::at_most(s.ok, 1), s.error, s.plan_hash);
  }
};

[[nodiscard]] std::string encode_bootstrap_ack(const BootstrapAckMsg& m);
[[nodiscard]] bool decode_bootstrap_ack(std::string_view in, BootstrapAckMsg& out);

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Coordinator-side counters, surfaced through VerifyResult::shard.
struct ShardStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;          ///< total wire bytes, coordinator → workers
  std::uint64_t bytes_received = 0;      ///< total wire bytes, workers → coordinator
  std::uint64_t outcome_bytes_sent = 0;  ///< upstream outcome deliveries only
  std::uint64_t outcome_bytes_received = 0;
  std::uint64_t deliveries_skipped = 0;  ///< dep outcomes already on the worker
  std::uint64_t tasks_reassigned = 0;    ///< in-flight tasks rescued from dead workers
  std::uint64_t workers_respawned = 0;
  std::uint64_t decode_errors = 0;       ///< poisoned worker streams
  std::uint64_t heartbeats = 0;          ///< kHeartbeat frames received
  std::uint64_t progress_probes = 0;     ///< soft-deadline probes of slow tasks
  std::uint64_t hang_kills = 0;          ///< hard-deadline SIGKILLs of stuck workers
  std::uint64_t write_timeouts = 0;      ///< bounded write_all gave up on a peer
  /// tasks_per_shard[w] = tasks completed by worker slot w.
  std::vector<std::uint64_t> tasks_per_shard;
};

/// One schedulable task: an SCC of the PEC dependency graph, minus dedup
/// class members. The Verifier's plan builds the list once; the in-process
/// scheduler and every shard worker run each task through the same body
/// (run_task in core/verifier.cpp), and the coordinator reads the same
/// records to route outcomes and check completions. The TaskGraph carries
/// the dependency edges.
struct ShardTaskSpec {
  std::vector<PecId> pecs;  ///< run in order by the task body
  /// Upstream PECs whose recorded outcomes must be on the worker before the
  /// task runs (deduplicated, excludes PECs of the task itself).
  std::vector<PecId> deps;
  /// Batch PEC verification: class_members[i] lists the PECs whose verdicts
  /// ride on pecs[i] (the class representative). The task body emits one
  /// PecReport per member, translated from the representative's clean hold
  /// or natively re-explored, so only results cross the wire. Empty when no
  /// PEC of the task represents a multi-member class.
  std::vector<std::vector<PecId>> class_members;
};

struct ShardRunOptions {
  int shards = 2;
  /// Stop dispatching new tasks once any report arrives with a violation
  /// (the in-process early-stop behaviour); in-flight tasks still complete.
  bool stop_on_violation = false;
  /// Give up on a task after this many worker deaths while it was in flight
  /// (a deterministically-crashing task must not respawn forever).
  int max_reassignments_per_task = 3;

  // -- supervision (the hang-detection escalation ladder) -------------------
  /// Worker heartbeat cadence. Each worker runs a beacon thread that writes
  /// a kHeartbeat frame (carrying the exploration progress counter) every
  /// interval; 0 disables heartbeats and the deadlines below.
  int heartbeat_interval_ms = 100;
  /// Soft per-task deadline: a task in flight this long triggers one
  /// progress probe (stat + stderr note). A worker whose heartbeats arrive
  /// and whose progress counter advances is slow-but-alive and is left
  /// alone until the hard deadline.
  int soft_deadline_ms = 2000;
  /// Hard per-task deadline: a worker whose heartbeats have stopped for
  /// this long, or whose progress counter has been flat this long while a
  /// task is in flight, is presumed stuck — SIGKILL, reap, reassign under
  /// the reassignment cap (the same path socket EOF takes).
  int hard_deadline_ms = 30000;
  /// Base of the exponential respawn backoff for a flapping worker slot:
  /// the k-th respawn of a slot waits base << min(k, 6), capped at 2 s, so
  /// a crash-looping slot cannot monopolize the coordinator with respawns
  /// (saturating — see compute_respawn_backoff_ms).
  int respawn_backoff_ms = 25;
};

/// A fresh connection must ack kBootstrap within this long, heartbeats on or
/// off, or it is killed as a failed start (a rebuild takes a few ms at N=500).
inline constexpr int kBootstrapAckMs = 10000;

struct ShardRunResult {
  bool ok = false;           ///< coordinator completed (or stopped early by design)
  bool stopped_early = false;
  std::string error;         ///< set when !ok (no worker started, refused
                             ///< bootstrap, poisoned task, ...)
  std::vector<PecReport> reports;  ///< wire order; translated_from derived
                                   ///< from the task's class_members
  ShardStats stats;
};

/// Saturating exponential backoff before the (deaths)-th respawn of a worker
/// slot: base << min(deaths-1, 6), clamped to [0, 2000] ms with int64
/// arithmetic so a caller-supplied large base cannot overflow into a
/// negative gate (which would turn the backoff into a busy fork loop).
[[nodiscard]] int compute_respawn_backoff_ms(int base_ms, int deaths);

/// One worker's session after its bootstrap: the kTaskAssign/
/// kOutcomeDelivery/kShutdown loop, running each task through `body` with
/// its upstream outcomes in a worker-local store (mutable: the body
/// publishes the outcomes that dependents read). For each report the
/// session sends its violations, then the PEC's outcomes when the store
/// holds them after the body, then one kTaskDone. The heartbeat beacon (off
/// at interval 0) is joined before returning, so nothing writes to `fd`
/// after. Returns 0 orderly (kShutdown or EOF), 2 transport error, 3
/// protocol error, 4 body exception.
int run_worker_session(
    int fd, const Network& net, const PecSet& pecs, std::size_t task_count,
    int heartbeat_interval_ms, const WorkerFaults& faults,
    const std::function<std::vector<PecReport>(std::size_t task,
                                               OutcomeStore& upstream)>& body);

class WorkerTransport;  // sched/transport.hpp

/// Runs `graph` across `opts.shards` workers from `transport`. Each new
/// connection gets kBootstrap carrying `bootstrap(slot, generation)`, built
/// per incarnation, and takes tasks once its ack carries `plan_hash`; a
/// refusal or mismatch ends the run with ok == false. A kTaskDone must
/// report each of the task's PECs and class members once (members may be
/// absent only behind a violated representative under stop_on_violation),
/// and may mark a PEC translated only when it is a listed member and both
/// its entry and its representative's are clean: exhaustive, no budget
/// trip, no violation. Any other completion poisons the worker like a
/// malformed frame. A forking transport needs the caller effectively
/// single-threaded (workers start lazily).
ShardRunResult run_sharded_task_graph(
    const Network& net, const PecSet& pecs, const ShardRunOptions& opts,
    const TaskGraph& graph, const std::vector<ShardTaskSpec>& tasks,
    WorkerTransport& transport,
    const std::function<std::string(std::size_t slot, int generation)>&
        bootstrap,
    std::uint64_t plan_hash);

}  // namespace plankton::sched
