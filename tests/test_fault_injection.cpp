// Deterministic fault injection for the shard transport and worker loop
// (sched/fault.hpp): plan syntax, the seeded plan sweep, hang detection via
// heartbeats, and clean coordinator failure when recovery is impossible.
//
// The headline guarantees under test:
//   · seeded FaultPlans (short writes, torn frames, EINTR storms, crashes,
//     hangs) over the random_net corpus produce verdicts and violation
//     multisets bit-identical to the in-process oracle whenever recovery
//     succeeds — faults are invisible in the result, visible only in the
//     shard stats;
//   · a worker wedged forever (write lock held, heartbeats stalled) is
//     detected via missed heartbeats, SIGKILLed at the hard deadline, its
//     task reassigned, and the run completes bit-identical to fault-free;
//   · a fault that survives every respawn (gen*) exhausts the reassignment
//     cap and surfaces a clean coordinator error — the Verifier then falls
//     back in-process and still returns the correct verdict (never hangs,
//     never a wrong verdict).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>

#include "core/verifier.hpp"
#include "sched/fault.hpp"
#include "sched/shard.hpp"
#include "support/body_transport.hpp"
#include "support/figure6.hpp"
#include "support/random_net.hpp"
#include "workload/enterprise.hpp"

namespace plankton {
namespace {

using testsupport::Figure6;
using testsupport::RandomInstance;
using testsupport::make_random_instance;

sched::FaultPlan parse_plan(const std::string& text) {
  sched::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(sched::parse_fault_plan(text, plan, error))
      << "'" << text << "': " << error;
  return plan;
}

// ---------------------------------------------------------------------------
// Plan syntax
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesDirectivesAndRoundTrips) {
  const char* plans[] = {
      "crash@2",         "torn@1",
      "hang@3:50",       "wedge@1:0",
      "shortw",          "eintr@4",
      "crash@2;slot=1",  "torn@1;gen*",
      "crash@1;shortw;slot=0;gen*",
      // Network-level socket faults (connection dies, process survives):
      "stall@2:40",      "drop-conn@1",
      "torn-tcp@3",      "slow-read@2:15",
      "drop-conn@1;slot=1",
      "crash@2;stall@1:10;gen*",
  };
  for (const char* text : plans) {
    const sched::FaultPlan plan = parse_plan(text);
    EXPECT_FALSE(plan.empty()) << text;
    EXPECT_EQ(plan.str(), text) << "canonical render must round-trip";
    const sched::FaultPlan again = parse_plan(plan.str());
    EXPECT_EQ(again.str(), plan.str());
  }
  // Comma separation and whitespace are accepted; render is canonical.
  EXPECT_EQ(parse_plan("crash@2, slot=1").str(), "crash@2;slot=1");
  EXPECT_TRUE(parse_plan("").empty());
}

TEST(FaultPlan, RejectsMalformedDirectives) {
  const char* bad[] = {"crash",     "crash@0",   "crash@x", "hang@2",
                       "wedge@1",   "eintr@0",   "slot=",   "frobnicate@1",
                       "crash@1:2", "shortw@3",  "stall@1", "stall@0:10",
                       "drop-conn", "drop-conn@0",          "drop-conn@1:5",
                       "torn-tcp@x",             "slow-read@2"};
  for (const char* text : bad) {
    sched::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(sched::parse_fault_plan(text, plan, error)) << text;
    EXPECT_FALSE(error.empty()) << text;
    EXPECT_TRUE(plan.empty()) << "a failed parse must not leave partial state";
  }
}

TEST(FaultPlan, SeededPlansAreDeterministicAndScoped) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const sched::FaultPlan a = sched::FaultPlan::from_seed(seed);
    const sched::FaultPlan b = sched::FaultPlan::from_seed(seed);
    EXPECT_EQ(a.str(), b.str()) << "seed " << seed;
    EXPECT_FALSE(a.empty()) << "seed " << seed;
    // Generation scoping: by default the fault fires only at generation 0,
    // so the respawned worker is healthy and recovery always succeeds.
    EXPECT_TRUE(a.for_worker(0, 0).any()) << "seed " << seed;
    EXPECT_FALSE(a.for_worker(0, 1).any()) << "seed " << seed;
  }
  // seed= in the directive syntax derives the same plan.
  const sched::FaultPlan direct = sched::FaultPlan::from_seed(7);
  EXPECT_EQ(parse_plan("seed=7").str(), direct.str());
}

TEST(FaultPlan, SocketSeededPlansAreDeterministicAndScoped) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const sched::FaultPlan a = sched::FaultPlan::from_seed_socket(seed);
    const sched::FaultPlan b = sched::FaultPlan::from_seed_socket(seed);
    EXPECT_EQ(a.str(), b.str()) << "seed " << seed;
    EXPECT_FALSE(a.empty()) << "seed " << seed;
    // Every socket plan must schedule a socket-class fault, not a process
    // one: the sweep exercises connection death, never worker death.
    const sched::WorkerFaults wf = a.for_worker(0, 0);
    EXPECT_TRUE(wf.stall_at_frame != 0 || wf.drop_conn_at_frame != 0 ||
                wf.torn_tcp_at_frame != 0 || wf.slow_read_at != 0)
        << "seed " << seed << " -> '" << a.str() << "'";
    EXPECT_EQ(wf.crash_at_frame, 0u) << "seed " << seed;
    // Generation-0 scoping, like from_seed: recovery always succeeds.
    EXPECT_FALSE(a.for_worker(0, 1).any()) << "seed " << seed;
    // And the canonical string round-trips through the parser.
    sched::FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(sched::parse_fault_plan(a.str(), parsed, error)) << error;
    EXPECT_EQ(parsed.str(), a.str());
  }
}

TEST(FaultPlan, SlotScopingLimitsTheBlastRadius) {
  const sched::FaultPlan plan = parse_plan("crash@1;slot=1");
  EXPECT_FALSE(plan.for_worker(0, 0).any());
  EXPECT_TRUE(plan.for_worker(1, 0).any());
  EXPECT_FALSE(plan.for_worker(2, 0).any());
}

// ---------------------------------------------------------------------------
// Heartbeat framing
// ---------------------------------------------------------------------------

TEST(FaultPlan, HeartbeatFrameRoundTrips) {
  sched::HeartbeatMsg hb;
  hb.progress = 0x1122334455667788ull;
  const std::string payload = sched::encode_heartbeat(hb);
  sched::HeartbeatMsg out;
  ASSERT_TRUE(sched::decode_heartbeat(payload, out));
  EXPECT_EQ(out.progress, hb.progress);
  EXPECT_FALSE(sched::decode_heartbeat(payload.substr(0, 3), out));
  EXPECT_FALSE(sched::decode_heartbeat(payload + "x", out));
}

// ---------------------------------------------------------------------------
// Bit-identity under recoverable faults: the seeded plan sweep
// ---------------------------------------------------------------------------

/// Verdict + violation multiset + the exploration counters (the
/// test_shard_coordinator.cpp fingerprint, reused for fault runs).
struct Fingerprint {
  Verdict verdict = Verdict::kHolds;
  std::size_t pecs_verified = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t converged_states = 0;
  std::multiset<std::string> violations;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.verdict == b.verdict && a.pecs_verified == b.pecs_verified &&
           a.states_explored == b.states_explored &&
           a.converged_states == b.converged_states &&
           a.violations == b.violations;
  }
};

Fingerprint fingerprint(const VerifyResult& r) {
  Fingerprint fp;
  fp.verdict = r.verdict;
  fp.pecs_verified = r.pecs_verified;
  fp.states_explored = r.total.states_explored;
  fp.converged_states = r.total.converged_states;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      fp.violations.insert(rep.pec_str + "|" +
                           std::to_string(v.failures.hash()) + "|" + v.message +
                           "|" + v.trail_text);
    }
  }
  return fp;
}

/// One verification; `addr` narrows it to the PEC holding that address. A
/// sharded run must have run its tasks in workers: a refused bootstrap falls
/// back to the in-process scheduler, which is the very oracle these tests
/// compare against. (The unrecoverable cases below expect that fallback and
/// call Verifier themselves.)
VerifyResult run_verify(const Network& net, const Policy& policy,
                        VerifyOptions vo,
                        std::optional<IpAddr> addr = std::nullopt) {
  Verifier verifier(net, vo);
  VerifyResult r =
      addr ? verifier.verify_address(*addr, policy) : verifier.verify(policy);
  if (vo.shards > 0) {
    std::uint64_t ran = 0;
    for (const std::uint64_t n : r.shard.tasks_per_shard) ran += n;
    EXPECT_GT(ran, 0u) << "the sharded run fell back to in-process";
  }
  return r;
}

TEST(FaultInjectionSweep, SeededPlansMatchTheInProcessOracle) {
  // Every seeded plan is generation-0-scoped, so recovery always succeeds
  // within the reassignment cap and the sharded result must be bit-identical
  // to the fault-free in-process oracle. Corpus scales with
  // PLANKTON_DIFF_SEEDS like the other differential harnesses.
  int count = 10;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    count = std::max(6, std::atoi(v) / 10);
  }
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    const sched::FaultPlan plan =
        sched::FaultPlan::from_seed(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", policy " + inst.policy->name() + ", plan '" + plan.str() +
                 "')");
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore = inst.explore;
    vo.explore.find_all_violations = true;  // no early-stop nondeterminism
    vo.explore.suppress_equivalent = false;
    const Fingerprint ref = fingerprint(run_verify(inst.net, *inst.policy, vo));

    VerifyOptions sv = vo;
    sv.shards = 2;
    sv.shard_fault_plan = plan;
    // A tight heartbeat keeps hang-class plans cheap to sit through while
    // leaving the default 30 s hard deadline (hangs here are tens of ms —
    // slow, not stuck; nothing should be killed).
    sv.shard_heartbeat_interval_ms = 10;
    const VerifyResult r = run_verify(inst.net, *inst.policy, sv);
    EXPECT_EQ(fingerprint(r), ref)
        << "plan '" << plan.str() << "' changed the merged verdict";
  }
}

TEST(FaultInjectionSweep, TransportFaultsAreInvisibleInTheResult) {
  // One fixed workload through every fault class, asserting both bit-identity
  // and that the coordinator actually saw the fault (reassignment / recovery
  // stats), so a silently non-firing plan cannot pass the sweep vacuously.
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  struct Case {
    const char* plan;
    bool kills;  ///< the fault kills a worker (vs degrades the wire)
  };
  // Each plan also holds the task in flight (hang@1:25) long enough for at
  // least one beacon beat (10 ms cadence) before the task's frames go out;
  // the hang@1:30 row already does.
  const Case cases[] = {
      {"crash@1;hang@1:25", true},        {"torn@1;hang@1:25", true},
      {"shortw;hang@1:25", false},        {"eintr@3;hang@1:25", false},
      {"hang@1:30", false},               {"crash@1;slot=0;hang@1:25", true},
      {"shortw;eintr@2;hang@1:25", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.plan);
    VerifyOptions sv = vo;
    sv.shards = 2;
    sv.shard_fault_plan = parse_plan(c.plan);
    sv.shard_heartbeat_interval_ms = 10;
    const VerifyResult r = run_verify(fx.net, policy, sv);
    EXPECT_EQ(fingerprint(r), ref) << "verdict diverged under '" << c.plan
                                   << "'";
    if (c.kills) {
      EXPECT_GE(r.shard.tasks_reassigned, 1u)
          << "plan '" << c.plan << "' never actually killed a worker";
    }
    EXPECT_GT(r.shard.heartbeats, 0u) << "beacon thread never reported in";
  }
}

TEST(FaultInjectionSweep, MidStreamFaultsDiscardPartialResults) {
  // Frame-2 faults: the worker dies after a complete result frame has
  // already crossed the wire (Figure 6 is a single task, so a task-rich
  // workload is needed for a second frame to exist). Violation frames the
  // dead worker sent before kTaskDone must be discarded with the task —
  // a duplicate in the merged multiset would break bit-identity here.
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(ent.net, policy, vo));
  for (const char* plan : {"crash@2", "torn@2", "crash@3;shortw"}) {
    SCOPED_TRACE(plan);
    VerifyOptions sv = vo;
    sv.shards = 2;
    sv.shard_fault_plan = parse_plan(plan);
    sv.shard_heartbeat_interval_ms = 10;
    const VerifyResult r = run_verify(ent.net, policy, sv);
    EXPECT_EQ(fingerprint(r), ref) << "verdict diverged under '" << plan
                                   << "'";
    EXPECT_GE(r.shard.tasks_reassigned, 1u)
        << "plan '" << plan << "' never actually killed a worker";
  }
}

// ---------------------------------------------------------------------------
// Network-level socket faults: connection dies, process survives
// ---------------------------------------------------------------------------

TEST(SocketFaultSweep, SeededSocketPlansMatchTheInProcessOracle) {
  // The socket counterpart of SeededPlansMatchTheInProcessOracle: seeded
  // stall/drop-conn/torn-tcp/slow-read plans over the random corpus. All are
  // generation-0-scoped, so the reconnect/reassign machinery always recovers
  // and the result must be bit-identical to the fault-free oracle.
  int count = 10;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    count = std::max(6, std::atoi(v) / 10);
  }
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    const sched::FaultPlan plan =
        sched::FaultPlan::from_seed_socket(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", policy " + inst.policy->name() + ", plan '" + plan.str() +
                 "')");
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore = inst.explore;
    vo.explore.find_all_violations = true;
    vo.explore.suppress_equivalent = false;
    const Fingerprint ref = fingerprint(run_verify(inst.net, *inst.policy, vo));

    VerifyOptions sv = vo;
    sv.shards = 2;
    sv.shard_fault_plan = plan;
    sv.shard_heartbeat_interval_ms = 10;
    const VerifyResult r = run_verify(inst.net, *inst.policy, sv);
    EXPECT_EQ(fingerprint(r), ref)
        << "plan '" << plan.str() << "' changed the merged verdict";
  }
}

TEST(SocketFaultSweep, EachSocketFaultClassIsInvisibleInTheResult) {
  // One fixed workload through each socket-fault class. drop-conn and
  // torn-tcp kill the connection (the worker survives), so the coordinator
  // must reassign; stall and slow-read merely degrade the wire and must
  // leave the shard stats clean of reassignments.
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  struct Case {
    const char* plan;
    bool kills_conn;  ///< the connection dies (vs is merely slow)
  };
  const Case cases[] = {
      {"stall@1:30", false},
      {"drop-conn@1", true},
      {"torn-tcp@1", true},
      {"slow-read@2:30", false},
      {"drop-conn@1;slot=0", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.plan);
    VerifyOptions sv = vo;
    sv.shards = 2;
    sv.shard_fault_plan = parse_plan(c.plan);
    sv.shard_heartbeat_interval_ms = 10;
    const VerifyResult r = run_verify(fx.net, policy, sv);
    EXPECT_EQ(fingerprint(r), ref)
        << "verdict diverged under '" << c.plan << "'";
    if (c.kills_conn) {
      EXPECT_GE(r.shard.tasks_reassigned, 1u)
          << "plan '" << c.plan << "' never actually dropped a connection";
    } else {
      EXPECT_EQ(r.shard.tasks_reassigned, 0u)
          << "a merely-slow wire must not trigger reassignment";
    }
  }
}

TEST(SocketFaultSweep, TornTcpMidStreamDiscardsPartialResults) {
  // A torn stream after a complete result frame crossed the wire: everything
  // the dead connection delivered pre-tear must be discarded with the task,
  // or the merged violation multiset gains duplicates and bit-identity dies.
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(ent.net, policy, vo));
  for (const char* plan : {"torn-tcp@2", "drop-conn@2"}) {
    SCOPED_TRACE(plan);
    VerifyOptions sv = vo;
    sv.shards = 2;
    sv.shard_fault_plan = parse_plan(plan);
    sv.shard_heartbeat_interval_ms = 10;
    const VerifyResult r = run_verify(ent.net, policy, sv);
    EXPECT_EQ(fingerprint(r), ref) << "verdict diverged under '" << plan
                                   << "'";
    EXPECT_GE(r.shard.tasks_reassigned, 1u)
        << "plan '" << plan << "' never actually severed the stream";
  }
}

TEST(SocketFaultUnrecoverable, PersistentDropConnNeverYieldsAFalseHold) {
  // gen*: every incarnation's connection dies on its first data frame. The
  // coordinator exhausts the reassignment cap, errors out cleanly, and the
  // in-process fallback still produces the oracle verdict — the taxonomy
  // contract is kError/kInconclusive or the *correct* verdict, never a hold
  // the sharded run did not earn.
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  VerifyOptions sv = vo;
  sv.shards = 2;
  sv.shard_fault_plan = parse_plan("drop-conn@1;gen*");
  sv.shard_heartbeat_interval_ms = 10;
  const VerifyResult r = Verifier(fx.net, sv).verify(policy);
  EXPECT_EQ(fingerprint(r), ref)
      << "the in-process fallback verdict must match the oracle";
  EXPECT_TRUE(r.shard.tasks_per_shard.empty())
      << "the failed sharded attempt must not leave merged shard stats";
}

// ---------------------------------------------------------------------------
// Hang detection: the supervision escalation ladder
// ---------------------------------------------------------------------------

TEST(FaultInjectionHangs, WedgedWorkerIsKilledAndReassigned) {
  // wedge@1:0 = the worker's first incarnation wedges forever *holding the
  // frame-write lock*, so its heartbeat beacon stalls too. The coordinator
  // must notice the missed heartbeats, escalate soft -> hard, SIGKILL the
  // worker at the hard deadline, reassign its task, and still converge to
  // the bit-identical fault-free result (the acceptance criterion).
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const IpAddr dc(10, 200, 0, 1);
  const Fingerprint ref = fingerprint(run_verify(ent.net, policy, vo, dc));

  VerifyOptions sv = vo;
  sv.shards = 2;
  sv.shard_fault_plan = parse_plan("wedge@1:0;slot=0");
  sv.shard_heartbeat_interval_ms = 10;
  sv.shard_soft_deadline_ms = 60;
  sv.shard_hard_deadline_ms = 250;
  const VerifyResult r = run_verify(ent.net, policy, sv, dc);
  EXPECT_EQ(fingerprint(r), ref)
      << "hang recovery changed the merged verdict";
  EXPECT_GE(r.shard.hang_kills, 1u) << "the wedge was never detected";
  EXPECT_GE(r.shard.progress_probes, 1u)
      << "the soft deadline never escalated";
  EXPECT_GE(r.shard.tasks_reassigned, 1u);
  // The surviving worker may drain the queue before slot 0's respawn backoff
  // elapses, so a respawn is possible but not guaranteed — the reassignment
  // above is the recovery that matters.
}

TEST(FaultInjectionHangs, SlowButAliveWorkerIsNotKilled) {
  // hang@1:120 without the lock: the worker is slow but its beacon keeps
  // beating and the worker-loop progress counter keeps moving, so the hard
  // deadline must NOT fire even though it is far shorter than the hang.
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  VerifyOptions sv = vo;
  sv.shards = 1;
  sv.shard_fault_plan = parse_plan("hang@1:120");
  sv.shard_heartbeat_interval_ms = 10;
  sv.shard_soft_deadline_ms = 40;
  sv.shard_hard_deadline_ms = 300;
  const VerifyResult r = run_verify(fx.net, policy, sv);
  EXPECT_EQ(fingerprint(r), ref);
  EXPECT_EQ(r.shard.hang_kills, 0u)
      << "a slow worker with live heartbeats was killed";
  EXPECT_EQ(r.shard.workers_respawned, 0u);
}

// ---------------------------------------------------------------------------
// Unrecoverable faults: clean error, correct fallback, no hang
// ---------------------------------------------------------------------------

TEST(FaultInjectionUnrecoverable, PersistentCrashExhaustsTheCapCleanly) {
  // gen*: the crash survives every respawn, so the coordinator must exhaust
  // the per-task reassignment cap and error out — and the Verifier's
  // in-process fallback must still produce the correct verdict. The sharded
  // machinery is retried by the fallback with shards *unset*, so the end
  // result is exactly the oracle's.
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  VerifyOptions sv = vo;
  sv.shards = 2;
  sv.shard_fault_plan = parse_plan("crash@1;gen*");
  sv.shard_heartbeat_interval_ms = 10;
  const VerifyResult r = Verifier(fx.net, sv).verify(policy);
  EXPECT_EQ(fingerprint(r), ref)
      << "the in-process fallback verdict must match the oracle";
  // Shard stats stay empty: the sharded attempt failed before producing a
  // merged result (the fallback repopulates nothing).
  EXPECT_TRUE(r.shard.tasks_per_shard.empty());
}

TEST(FaultInjectionUnrecoverable, CoordinatorReportsTheCapError) {
  // Same plan, one level down: run_sharded_task_graph itself must return
  // ok=false with the reassignment-cap error (bounded retries, no hang).
  // One slot makes the sequence deterministic: every reassignment waits for
  // a respawn of that slot, so the cap of 2 trips on the third death after
  // exactly two respawns. With two slots the count depended on timing: when
  // slot 0's respawn acked and crashed inside slot 1's 1 ms backoff, the cap
  // tripped before slot 1 was ever respawned.
  const Network net = make_enterprise("VII").net;
  const PecSet pecs = compute_pecs(net);
  sched::TaskGraph graph;
  graph.dependents = {{}};
  graph.waiting_on = {0};
  std::vector<sched::ShardTaskSpec> specs(1);
  specs[0].pecs = {0};
  sched::ShardRunOptions opts;
  opts.shards = 1;
  opts.max_reassignments_per_task = 2;
  opts.respawn_backoff_ms = 1;  // keep the exponential backoff sweep fast
  testsupport::BodyTransport tp(net, pecs, graph.size(),
                                [](std::size_t, OutcomeStore&)
                                    -> std::vector<PecReport> {
                                  return {};
                                });
  const sched::ShardRunResult rr = sched::run_sharded_task_graph(
      net, pecs, opts, graph, specs, tp,
      testsupport::BodyTransport::payload(opts, parse_plan("crash@1;gen*")),
      testsupport::BodyTransport::kPlanHash);
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("reassignment cap"), std::string::npos) << rr.error;
  EXPECT_EQ(rr.stats.tasks_reassigned, 3u);
  EXPECT_EQ(rr.stats.workers_respawned, 2u);
}

}  // namespace
}  // namespace plankton
