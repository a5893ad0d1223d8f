// Cluster-scale sharding (sched/transport.*, core/verifier.cpp,
// serve_shard_worker_session): TCP workers against the fork-transport and
// in-process oracles, bootstrap handshake hardening, the per-incarnation
// bootstrap deadline, mid-task worker death failover, and the serve daemon's
// disconnect-mid-reply survival.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "sched/shard.hpp"
#include "serve/server.hpp"
#include "serve/serve.hpp"
#include "support/figure6.hpp"
#include "support/random_net.hpp"
#include "support/thread_worker.hpp"
#include "workload/enterprise.hpp"
#include "workload/fat_tree.hpp"

namespace plankton {
namespace {

using testsupport::Figure6;
using testsupport::RandomInstance;
using testsupport::ThreadWorker;
using testsupport::make_random_instance;

/// The acceptance-criteria fingerprint: verdict, per-PEC counts, aggregate
/// state counters, and the violation multiset with rendered trails.
struct Fingerprint {
  Verdict verdict = Verdict::kHolds;
  std::size_t pecs_verified = 0;
  std::size_t pecs_support = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t converged_states = 0;
  std::multiset<std::string> violations;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.verdict == b.verdict && a.pecs_verified == b.pecs_verified &&
           a.pecs_support == b.pecs_support &&
           a.states_explored == b.states_explored &&
           a.converged_states == b.converged_states &&
           a.violations == b.violations;
  }
};

Fingerprint fingerprint(const VerifyResult& r) {
  Fingerprint fp;
  fp.verdict = r.verdict;
  fp.pecs_verified = r.pecs_verified;
  fp.pecs_support = r.pecs_support;
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
/// compare against.
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

// ---------------------------------------------------------------------------
// TCP transport determinism: {fork, tcp} × shards {1,2,4} vs in-process
// ---------------------------------------------------------------------------

TEST(TcpTransport, RandomCorpusMatchesForkAndInProcess) {
  ThreadWorker workers[4];
  std::vector<std::string> addrs;
  for (const auto& w : workers) addrs.push_back(w.address());

  int corpus = 8;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    corpus = std::max(8, std::atoi(v) / 10);
  }
  int eligible = 0;
  for (int seed = 1; seed <= corpus; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    // Workers rebuild the policy from its spec line; an instance whose
    // policy had no spec form would run in-process.
    if (inst.policy->spec(inst.net).empty()) continue;
    ++eligible;
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", policy " + inst.policy->name() + ")");
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore = inst.explore;
    vo.explore.find_all_violations = true;
    vo.explore.suppress_equivalent = false;
    const Fingerprint ref = fingerprint(run_verify(inst.net, *inst.policy, vo));
    for (const int shards : {1, 2, 4}) {
      VerifyOptions forkv = vo;
      forkv.shards = shards;
      EXPECT_EQ(fingerprint(run_verify(inst.net, *inst.policy, forkv)), ref)
          << "fork transport, shards=" << shards;
      VerifyOptions tcpv = forkv;
      tcpv.shard_workers = addrs;
      const VerifyResult r = run_verify(inst.net, *inst.policy, tcpv);
      EXPECT_EQ(fingerprint(r), ref) << "tcp transport, shards=" << shards;
      EXPECT_GT(r.shard.frames_sent, 0u)
          << "tcp run fell back to in-process (bootstrap refused?)";
      EXPECT_EQ(r.shard.workers_respawned, 0u)
          << "tcp workers should survive a clean run";
    }
  }
  ASSERT_GE(eligible, 3) << "corpus must exercise spec-able policies";
  EXPECT_GT(workers[0].sessions(), 0) << "worker 0 never served a bootstrap";
}

TEST(TcpTransport, Figure6MatchesAtEveryShardCount) {
  ThreadWorker workers[4];
  std::vector<std::string> addrs;
  for (const auto& w : workers) addrs.push_back(w.address());
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  ASSERT_FALSE(policy.spec(fx.net).empty());
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));
  EXPECT_GT(ref.converged_states, 0u);
  for (const int shards : {1, 2, 4}) {
    VerifyOptions sv = vo;
    sv.shards = shards;
    sv.shard_workers = addrs;
    const VerifyResult r = run_verify(fx.net, policy, sv);
    EXPECT_EQ(fingerprint(r), ref) << "shards=" << shards;
    EXPECT_GT(r.shard.frames_sent, 0u);
  }
}

TEST(TcpTransport, SpecFormPoliciesShardThroughBootstrap) {
  // Multipath consistency, path consistency and a multi-waypoint policy
  // rebuild from their spec lines in every worker, forked or TCP, and match
  // the in-process fingerprint (run_verify also asserts the workers ran the
  // tasks, so a refused bootstrap cannot pass as the in-process oracle).
  ThreadWorker workers[2];
  const Figure6 fx;
  const MultipathConsistencyPolicy multipath({fx.r6});
  const PathConsistencyPolicy consistency({fx.r5, fx.r6});
  const WaypointPolicy waypoint({fx.r6}, {fx.r2, fx.r3});
  EXPECT_EQ(multipath.spec(fx.net), "multipath R6");
  EXPECT_EQ(consistency.spec(fx.net), "consistency R5 R6");
  EXPECT_EQ(waypoint.spec(fx.net), "waypoint R2,R3 R6");
  for (const Policy* policy :
       {static_cast<const Policy*>(&multipath),
        static_cast<const Policy*>(&consistency),
        static_cast<const Policy*>(&waypoint)}) {
    SCOPED_TRACE(policy->spec(fx.net));
    VerifyOptions vo;
    vo.explore.find_all_violations = true;
    const Fingerprint ref = fingerprint(run_verify(fx.net, *policy, vo));
    VerifyOptions sv = vo;
    sv.shards = 2;
    EXPECT_EQ(fingerprint(run_verify(fx.net, *policy, sv)), ref) << "fork";
    sv.shard_workers = {workers[0].address(), workers[1].address()};
    EXPECT_EQ(fingerprint(run_verify(fx.net, *policy, sv)), ref) << "tcp";
  }
}

// ---------------------------------------------------------------------------
// Bootstrap handshake hardening
// ---------------------------------------------------------------------------

/// Runs serve_shard_worker_session over a socketpair and returns its exit
/// code; `drive` runs on the coordinator end.
int drive_session(const std::function<void(int fd)>& drive) {
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int code = -1;
  std::thread session([&] { code = serve_shard_worker_session(sv[1]); });
  drive(sv[0]);
  ::close(sv[0]);
  session.join();
  ::close(sv[1]);
  return code;
}

TEST(TcpBootstrap, MalformedConfigIsNackedNotCrashed) {
  serve::BootstrapMsg bm;
  bm.config_text = "definitely not a network config {{{";
  bm.policy_spec = "loop";
  const int code = drive_session([&](int fd) {
    ASSERT_TRUE(serve::send_frame(fd, sched::MsgType::kBootstrap,
                                  serve::encode_bootstrap(bm)));
    sched::FrameDecoder dec;
    sched::Frame f;
    std::string err;
    ASSERT_TRUE(serve::recv_frame(fd, dec, f, err)) << err;
    ASSERT_EQ(f.type, sched::MsgType::kBootstrapAck);
    sched::BootstrapAckMsg ack;
    ASSERT_TRUE(sched::decode_bootstrap_ack(f.payload, ack));
    EXPECT_EQ(ack.ok, 0);
    EXPECT_NE(ack.error.find("config"), std::string::npos) << ack.error;
  });
  EXPECT_EQ(code, 3);
}

TEST(TcpBootstrap, WrongFirstFrameIsRefused) {
  const int code = drive_session([&](int fd) {
    ASSERT_TRUE(serve::send_frame(fd, sched::MsgType::kHeartbeat, ""));
    sched::FrameDecoder dec;
    sched::Frame f;
    std::string err;
    ASSERT_TRUE(serve::recv_frame(fd, dec, f, err)) << err;
    ASSERT_EQ(f.type, sched::MsgType::kBootstrapAck);
    sched::BootstrapAckMsg ack;
    ASSERT_TRUE(sched::decode_bootstrap_ack(f.payload, ack));
    EXPECT_EQ(ack.ok, 0);
  });
  EXPECT_EQ(code, 3);
}

TEST(TcpBootstrap, DataPipelinedPastBootstrapIsRefused) {
  // The coordinator must not send anything before the ack; a worker seeing
  // pipelined bytes refuses the whole session rather than guessing.
  serve::BootstrapMsg bm;
  bm.config_text = "network x\n";
  bm.policy_spec = "loop";
  const int code = drive_session([&](int fd) {
    std::string out;
    sched::encode_frame(out, sched::MsgType::kBootstrap,
                        serve::encode_bootstrap(bm));
    sched::encode_frame(out, sched::MsgType::kHeartbeat, "");  // pipelined
    ASSERT_EQ(::send(fd, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
    sched::FrameDecoder dec;
    sched::Frame f;
    std::string err;
    ASSERT_TRUE(serve::recv_frame(fd, dec, f, err)) << err;
    ASSERT_EQ(f.type, sched::MsgType::kBootstrapAck);
    sched::BootstrapAckMsg ack;
    ASSERT_TRUE(sched::decode_bootstrap_ack(f.payload, ack));
    EXPECT_EQ(ack.ok, 0);
  });
  EXPECT_EQ(code, 3);
}

TEST(TcpBootstrap, EofBeforeBootstrapIsOrderly) {
  const int code = drive_session([](int) {});  // dial and hang up
  EXPECT_EQ(code, 0);
}

TEST(TcpBootstrap, ImpossibleClassListsAreNacked) {
  // The worker takes the coordinator's dedup classes as shipped, so it
  // refuses any list compute_pec_classes could never emit rather than build
  // a plan on it. A well-formed list is the control: it gets its ack.
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const PecSet pecs = compute_pecs(ft.net);
  const auto n = static_cast<std::uint32_t>(pecs.pecs.size());
  ASSERT_GE(n, 4u);
  serve::BootstrapMsg bm;
  bm.config_text = serve::render_config(ft.net);
  bm.policy_spec = "loop";
  for (std::uint32_t p = 0; p + 1 < n; ++p) bm.targets.push_back(p);
  const auto answer = [&](std::vector<serve::BootstrapClass> classes,
                          int& code) {
    bm.classes = std::move(classes);
    sched::BootstrapAckMsg ack;
    code = drive_session([&](int fd) {
      ASSERT_TRUE(serve::send_frame(fd, sched::MsgType::kBootstrap,
                                    serve::encode_bootstrap(bm)));
      sched::FrameDecoder dec;
      sched::Frame f;
      std::string err;
      ASSERT_TRUE(serve::recv_frame(fd, dec, f, err)) << err;
      ASSERT_EQ(f.type, sched::MsgType::kBootstrapAck);
      ASSERT_TRUE(sched::decode_bootstrap_ack(f.payload, ack));
    });
    return ack;
  };
  const struct {
    std::vector<serve::BootstrapClass> classes;
    const char* why;
  } bad[] = {
      {{{0, {n + 5}}}, "out of range"},
      {{{n + 5, {0}}}, "out of range"},
      {{{0, {1}}, {2, {1}}}, "in two classes"},
      {{{0, {1}}, {1, {2}}}, "in two classes"},
      {{{0, {0}}}, "its own member"},
      {{{0, {n - 1}}}, "not a target"},
      {{{0, {}}}, "no members"},
  };
  for (const auto& c : bad) {
    SCOPED_TRACE(c.why);
    int code = -1;
    const sched::BootstrapAckMsg ack = answer(c.classes, code);
    EXPECT_EQ(ack.ok, 0);
    EXPECT_NE(ack.error.find("classes"), std::string::npos) << ack.error;
    EXPECT_NE(ack.error.find(c.why), std::string::npos) << ack.error;
    EXPECT_EQ(code, 3);
  }
  int code = -1;
  EXPECT_EQ(answer({{0, {1, 2}}}, code).ok, 1);
  EXPECT_EQ(code, 0) << "the coordinator hung up after the ack";
}

// ---------------------------------------------------------------------------
// The per-incarnation bootstrap deadline
// ---------------------------------------------------------------------------

TEST(TcpBootstrap, LateIncarnationGetsTheRemainingDeadline) {
  // The budget deadline travels as the milliseconds left of the run-start
  // deadline, computed when each kBootstrap is built. drop-conn@1 severs
  // slot 0's first session, so its reconnect is a later incarnation: its
  // bootstrap must carry less time than the first, or a worker restarted
  // late could run past the whole-run deadline.
  ThreadWorker workers[2] = {ThreadWorker(true), ThreadWorker(true)};
  FatTreeOptions o;
  o.k = 16;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  // One task per edge prefix: plenty of work left after the drop for slot
  // 0's respawn backoff to elapse and the slot to come back.
  vo.pec_dedup = false;
  vo.explore.find_all_violations = true;
  vo.explore.budget.deadline = std::chrono::seconds(60);
  const Fingerprint ref = fingerprint(run_verify(ft.net, policy, vo));

  VerifyOptions sv = vo;
  sv.shards = 2;
  sv.shard_workers = {workers[0].address(), workers[1].address()};
  std::string err;
  ASSERT_TRUE(sched::parse_fault_plan("drop-conn@1;slot=0",
                                      sv.shard_fault_plan, err))
      << err;
  const VerifyResult r = run_verify(ft.net, policy, sv);
  EXPECT_EQ(fingerprint(r), ref);
  EXPECT_GE(r.shard.tasks_reassigned, 1u) << "slot 0 never dropped";

  const std::vector<serve::BootstrapMsg> sent = workers[0].bootstraps();
  ASSERT_GE(sent.size(), 2u) << "slot 0 never re-bootstrapped";
  EXPECT_EQ(sent[0].fault_plan, "drop-conn@1") << "resolved for generation 0";
  EXPECT_EQ(sent[1].fault_plan, "") << "the reconnect is healthy";
  EXPECT_GT(sent[0].explore.budget.deadline.count(), 0);
  EXPECT_LT(sent[1].explore.budget.deadline, sent[0].explore.budget.deadline);
  EXPECT_LE(sent[0].explore.budget.deadline, vo.explore.budget.deadline);
}

// ---------------------------------------------------------------------------
// Failover: a real remote worker process dies mid-task
// ---------------------------------------------------------------------------

TEST(TcpRecovery, SigkilledWorkerFailsOverToSurvivor) {
  // Worker 0 is a real forked process (its death must take a separate
  // address space with it, like a crashed remote host); worker 1 is a
  // surviving thread worker. Worker 0 dying mid-run must reassign its task
  // to 1 and converge to the reference verdict — reconnection attempts to
  // the dead address keep failing and must not wedge the run.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int child_port = ntohs(addr.sin_port);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) _exit(0);
      serve_shard_worker_session(conn);
      ::close(conn);
    }
  }
  ::close(listen_fd);  // the child owns the listener now

  ThreadWorker survivor;
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const IpAddr dc(10, 200, 0, 1);
  const Fingerprint ref = fingerprint(run_verify(ent.net, policy, vo, dc));

  VerifyOptions sv = vo;
  sv.shards = 2;
  sv.shard_workers = {"127.0.0.1:" + std::to_string(child_port),
                      survivor.address()};
  // Slot 0 dialed the child (slot s -> workers[s % n]) and gets the first
  // task. The coordinator ships crash@1 inside the child's kBootstrap, so
  // the child process exits mid-task, before its first result frame.
  std::string err;
  ASSERT_TRUE(sched::parse_fault_plan("crash@1;slot=0", sv.shard_fault_plan,
                                      err))
      << err;
  const VerifyResult r = run_verify(ent.net, policy, sv, dc);
  EXPECT_EQ(fingerprint(r), ref) << "failover changed the merged verdict";
  EXPECT_GE(r.shard.tasks_reassigned, 1u);
  int status = 0;
  EXPECT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "the child died by a signal, not crash@1";
  EXPECT_EQ(WEXITSTATUS(status), 9) << "crash@F exits with code 9";
}

// ---------------------------------------------------------------------------
// TCP session resilience: socket faults, reconnect + re-bootstrap
// ---------------------------------------------------------------------------

TEST(TcpRecovery, DroppedConnectionReconnectsAndReBootstraps) {
  // drop-conn@1 severs the TCP session at the worker's first data frame —
  // the worker *daemon* survives and returns to its accept loop, so recovery
  // is reconnect + re-bootstrap (a fresh kBootstrap handshake against the
  // same address), not a process respawn. The ThreadWorker session counter
  // is the proof the re-bootstrap actually happened.
  ThreadWorker workers[2];
  std::vector<std::string> addrs;
  for (const auto& w : workers) addrs.push_back(w.address());

  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  ASSERT_FALSE(policy.spec(fx.net).empty());
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  VerifyOptions sv = vo;
  sv.shards = 2;
  sv.shard_workers = addrs;
  std::string err;
  ASSERT_TRUE(sched::parse_fault_plan("drop-conn@1", sv.shard_fault_plan, err))
      << err;
  const VerifyResult r = run_verify(fx.net, policy, sv);
  EXPECT_EQ(fingerprint(r), ref) << "reconnect changed the merged verdict";
  EXPECT_GE(r.shard.tasks_reassigned, 1u)
      << "the drop-conn fault never actually severed a session";
  const int total_sessions = workers[0].sessions() + workers[1].sessions();
  EXPECT_GT(total_sessions, 2)
      << "no re-bootstrap happened: the dropped session was never re-dialed";
}

TEST(TcpRecovery, SeededSocketPlansMatchOverTcpTransport) {
  // The serve-side twin of SocketFaultSweep: seeded socket plans against
  // real TCP worker sessions. The coordinator resolves the plan per slot +
  // generation and ships each incarnation's faults inside kBootstrap.
  ThreadWorker workers[2];
  std::vector<std::string> addrs;
  for (const auto& w : workers) addrs.push_back(w.address());

  int corpus = 6;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    corpus = std::max(6, std::atoi(v) / 16);
  }
  int eligible = 0;
  for (int seed = 1; seed <= corpus; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    if (inst.policy->spec(inst.net).empty()) continue;
    ++eligible;
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
    sv.shard_workers = addrs;
    sv.shard_fault_plan = plan;
    const VerifyResult r = run_verify(inst.net, *inst.policy, sv);
    EXPECT_EQ(fingerprint(r), ref)
        << "plan '" << plan.str() << "' changed the merged verdict";
    EXPECT_GT(r.shard.frames_sent, 0u)
        << "tcp run fell back to in-process (bootstrap refused?)";
  }
  ASSERT_GE(eligible, 3) << "corpus must exercise spec-able policies";
}

// ---------------------------------------------------------------------------
// Serve daemon: client disconnect mid-reply must not kill the process (S1)
// ---------------------------------------------------------------------------

TEST(ServeDaemon, SurvivesClientDisconnectMidReply) {
  // The regression: the reply writer used plain write(); a client that closed
  // its socket while replies were still being flushed raised SIGPIPE in the
  // daemon, whose default disposition kills the process. With the fix
  // (MSG_NOSIGNAL + SIG_IGN) the daemon sheds the connection and keeps
  // serving — this test dies on pre-fix code.
  const int port = 20000 + (getpid() % 20000);
  serve::ServerOptions so;
  so.tcp_port = port;
  std::thread server([&] { serve::run_server(so); });

  std::string err;
  int fd = -1;
  for (int attempt = 0; attempt < 100 && fd < 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fd = serve::connect_tcp(port, err);
  }
  ASSERT_GE(fd, 0) << err;

  // Pipeline a burst of requests, then vanish without reading a byte. The
  // daemon keeps writing replies into a socket whose peer is gone; once the
  // client kernel answers with RST, further sends hit EPIPE.
  std::string burst;
  for (int i = 0; i < 64; ++i) {
    sched::encode_frame(burst, sched::MsgType::kCacheStats, "");
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  ::close(fd);  // no reads: replies pile into a dead peer

  // The daemon must still be alive and serving fresh connections.
  int fd2 = -1;
  for (int attempt = 0; attempt < 100 && fd2 < 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fd2 = serve::connect_tcp(port, err);
  }
  ASSERT_GE(fd2, 0) << "daemon died after the disconnect: " << err;
  ASSERT_TRUE(serve::send_frame(fd2, sched::MsgType::kCacheStats, ""));
  sched::FrameDecoder dec;
  sched::Frame f;
  ASSERT_TRUE(serve::recv_frame(fd2, dec, f, err)) << err;
  EXPECT_EQ(f.type, sched::MsgType::kCacheStats);
  ASSERT_TRUE(serve::send_frame(fd2, sched::MsgType::kShutdown, ""));
  ASSERT_TRUE(serve::recv_frame(fd2, dec, f, err)) << err;
  ::close(fd2);
  server.join();
}

}  // namespace
}  // namespace plankton
