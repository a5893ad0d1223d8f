// Serve daemon resilience (src/serve/server.cpp): the multiplexed accept
// loop. A client stalled mid-frame must never block the others (the old
// null-timeout select() wedge), connections beyond the cap are refused with
// a parseable reply, SIGTERM drains gracefully (cache saved, journal
// compacted, exit 0), a client that disconnects mid-reply never kills the
// daemon, and a kShutdown whose ack cannot be delivered still drains. The
// tests play the faulty peer themselves: the daemon carries no code whose
// job is to misbehave. The client half is tested the same way, with a fake
// daemon on a socketpair that tears its reply off at each cut.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/serve.hpp"

namespace plankton::serve {
namespace {

const char* kRing = R"(
node r0 loopback 10.0.0.1
node r1 loopback 10.0.0.2
node r2 loopback 10.0.0.3
node r3 loopback 10.0.0.4
link r0 r1 cost 10
link r1 r2 cost 10
link r2 r3 cost 10
link r3 r0 cost 10
ospf r0 no-loopback
ospf r1 no-loopback
ospf r2 no-loopback
ospf r3 no-loopback
ospf r0 originate 10.1.0.0/24
ospf r1 originate 10.2.0.0/24
ospf r2 originate 10.3.0.0/24
ospf r3 originate 10.4.0.0/24
)";

std::string tmp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "/" + name;
  std::remove(p.c_str());
  return p;
}

/// Connects to a daemon's unix socket, retrying while it boots.
int connect_retry(const std::string& path) {
  std::string err;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = connect_unix(path, err);
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "daemon never came up on " << path << ": " << err;
  return -1;
}

bool stats_roundtrip(int fd, std::string& error) {
  if (!send_frame(fd, sched::MsgType::kCacheStats, "")) {
    error = "send failed";
    return false;
  }
  sched::FrameDecoder dec;
  sched::Frame f;
  if (!recv_frame(fd, dec, f, error)) return false;
  return f.type == sched::MsgType::kCacheStats;
}

/// Asks the daemon on `fd` to shut down and waits for its ack.
void request_shutdown(int fd) {
  EXPECT_TRUE(send_frame(fd, sched::MsgType::kShutdown, ""));
  sched::FrameDecoder dec;
  sched::Frame f;
  std::string err;
  EXPECT_TRUE(recv_frame(fd, dec, f, err)) << err;
}

// ---------------------------------------------------------------------------
// The stalled-writer wedge (satellite fix): pre-fix this test never finishes
// ---------------------------------------------------------------------------

TEST(ServeResilience, StalledMidFrameClientDoesNotBlockOthers) {
  // The regression: the old loop serviced one blocking read at a time with a
  // null select() timeout, so a client that sent *half* a frame and went
  // quiet wedged every other connection forever. Post-fix the loop
  // multiplexes with a periodic tick and a per-client mid-frame deadline.
  const std::string sock = tmp_path("resil_stall.sock");
  ServerOptions so;
  so.unix_path = sock;
  so.read_deadline_ms = 200;
  std::thread server([&] { run_server(so); });

  const int staller = connect_retry(sock);
  ASSERT_GE(staller, 0);
  std::string half;
  sched::encode_frame(half, sched::MsgType::kCacheStats, "");
  ASSERT_GT(half.size(), 4u);
  ASSERT_EQ(::send(staller, half.data(), 4, MSG_NOSIGNAL), 4)
      << "the stalled client parks 4 header bytes and goes silent";

  // A second client must still get answers while the first is wedged.
  const int live = connect_retry(sock);
  ASSERT_GE(live, 0);
  std::string err;
  EXPECT_TRUE(stats_roundtrip(live, err))
      << "stalled peer blocked the daemon: " << err;

  // And the staller is evicted once its mid-frame deadline passes: the
  // daemon closes the socket, which surfaces here as EOF.
  char byte;
  ssize_t r = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    r = ::recv(staller, &byte, 1, MSG_DONTWAIT);
    if (r == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(r, 0) << "overdue mid-frame client was never disconnected";
  ::close(staller);

  request_shutdown(live);
  ::close(live);
  server.join();
  std::remove(sock.c_str());
}

// ---------------------------------------------------------------------------
// Connection cap: refusal is a parseable reply, not a hang or an RST
// ---------------------------------------------------------------------------

TEST(ServeResilience, ConnectionCapRefusesGracefully) {
  const std::string sock = tmp_path("resil_cap.sock");
  ServerOptions so;
  so.unix_path = sock;
  so.max_clients = 1;
  std::thread server([&] { run_server(so); });

  const int first = connect_retry(sock);
  ASSERT_GE(first, 0);
  std::string err;
  ASSERT_TRUE(stats_roundtrip(first, err)) << err;  // first is registered

  const int second = connect_retry(sock);
  ASSERT_GE(second, 0);
  sched::FrameDecoder dec;
  sched::Frame f;
  ASSERT_TRUE(recv_frame(second, dec, f, err))
      << "refusal must be a reply, not a slammed door: " << err;
  ASSERT_EQ(f.type, sched::MsgType::kVerdictReply);
  VerdictReplyMsg refuse;
  ASSERT_TRUE(decode_verdict_reply(f.payload, refuse));
  EXPECT_FALSE(refuse.ok);
  EXPECT_NE(refuse.error.find("capacity"), std::string::npos) << refuse.error;
  char byte;
  EXPECT_EQ(::read(second, &byte, 1), 0) << "refused connection must close";
  ::close(second);

  // The registered client is unaffected by the refusal next door.
  EXPECT_TRUE(stats_roundtrip(first, err)) << err;
  request_shutdown(first);
  ::close(first);
  server.join();
  std::remove(sock.c_str());
}

// ---------------------------------------------------------------------------
// SIGTERM drain: journal compacted with the cache's keys, exit 0
// ---------------------------------------------------------------------------

TEST(ServeResilience, SigtermDrainsGracefully) {
  const std::string sock = tmp_path("resil_drain.sock");
  const std::string journal = tmp_path("resil_drain.pkj");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ServerOptions so;
    so.unix_path = sock;
    so.journal_path = journal;
    _exit(run_server(so));
  }

  const int fd = connect_retry(sock);
  ASSERT_GE(fd, 0);
  LoadNetMsg load;
  load.config_text = kRing;
  ASSERT_TRUE(send_frame(fd, sched::MsgType::kLoadNet, encode_load_net(load)));
  sched::FrameDecoder dec;
  sched::Frame f;
  std::string err;
  ASSERT_TRUE(recv_frame(fd, dec, f, err)) << err;
  VerdictReplyMsg reply;
  ASSERT_TRUE(decode_verdict_reply(f.payload, reply));
  ASSERT_TRUE(reply.ok) << reply.error;
  // Journal two deltas so the drain-time compaction has history to fold.
  ApplyDeltaMsg delta;
  delta.ops.push_back({true, "static r0 10.3.0.0/24 via r1"});
  ASSERT_TRUE(
      send_frame(fd, sched::MsgType::kApplyDelta, encode_apply_delta(delta)));
  ASSERT_TRUE(recv_frame(fd, dec, f, err)) << err;
  ASSERT_TRUE(decode_verdict_reply(f.payload, reply));
  ASSERT_TRUE(reply.ok) << reply.error;
  // A cold query fills the cache, so the drain has clean holds to keep.
  QueryMsg loop;
  loop.policy_spec = "loop";
  ASSERT_TRUE(send_frame(fd, sched::MsgType::kQuery, encode_query(loop)));
  ASSERT_TRUE(recv_frame(fd, dec, f, err)) << err;
  ASSERT_TRUE(decode_verdict_reply(f.payload, reply));
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(static_cast<Verdict>(reply.verdict), Verdict::kHolds);
  ASSERT_EQ(reply.reverified, reply.targets);
  ::close(fd);

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = -1;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon must drain, not die of the signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The drain compacted the journal: a kLoadNet record holding the
  // post-delta resident config, then the cache's clean holds.
  Journal::ReplayResult stats;
  std::vector<std::pair<JournalRecord, std::string>> records;
  ASSERT_TRUE(Journal::replay(
      journal,
      [&](JournalRecord type, std::string_view payload) {
        records.emplace_back(type, std::string(payload));
        return true;
      },
      stats, err))
      << err;
  ASSERT_EQ(records.size(), 2u) << "drain must compact the load+delta history";
  EXPECT_EQ(records[0].first, JournalRecord::kLoadNet);
  EXPECT_NE(records[0].second.find("static r0 10.3.0.0/24 via r1"),
            std::string::npos)
      << "compacted config must carry the applied delta";
  EXPECT_EQ(records[1].first, JournalRecord::kCleanHolds);

  // And the replayed journal rebuilds the drained daemon's state with a
  // warm cache: the same query, with no load, explores nothing.
  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(journal, err)) << err;
  ASSERT_TRUE(revived.replay_journal(stats, err)) << err;
  EXPECT_TRUE(revived.loaded());
  const VerdictReplyMsg warm = revived.query(loop);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(static_cast<Verdict>(warm.verdict), Verdict::kHolds);
  EXPECT_EQ(warm.cache_hits, warm.targets);
  EXPECT_EQ(warm.reverified, 0u);

  std::remove(sock.c_str());
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------------------
// Client disconnect mid-reply must not kill the process
// ---------------------------------------------------------------------------

TEST(ServeDaemon, SurvivesClientDisconnectMidReply) {
  // The regression: the reply writer used plain write(); a client that closed
  // its socket while replies were still being flushed raised SIGPIPE in the
  // daemon, whose default disposition kills the process. With the fix
  // (MSG_NOSIGNAL + SIG_IGN) the daemon sheds the connection and keeps
  // serving — this test dies on pre-fix code.
  const int port = 20000 + (getpid() % 20000);
  ServerOptions so;
  so.tcp_port = port;
  std::thread server([&] { run_server(so); });

  std::string err;
  int fd = -1;
  for (int attempt = 0; attempt < 100 && fd < 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fd = connect_tcp(port, err);
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
    fd2 = connect_tcp(port, err);
  }
  ASSERT_GE(fd2, 0) << "daemon died after the disconnect: " << err;
  ASSERT_TRUE(send_frame(fd2, sched::MsgType::kCacheStats, ""));
  sched::FrameDecoder dec;
  sched::Frame f;
  ASSERT_TRUE(recv_frame(fd2, dec, f, err)) << err;
  EXPECT_EQ(f.type, sched::MsgType::kCacheStats);
  ASSERT_TRUE(send_frame(fd2, sched::MsgType::kShutdown, ""));
  ASSERT_TRUE(recv_frame(fd2, dec, f, err)) << err;
  ::close(fd2);
  server.join();
}

TEST(ServeDaemon, ShutdownDrainsWhenItsAckIsUndeliverable) {
  // kShutdown compacts and then acks, and the ack is best effort: a client
  // that asks for shutdown and vanishes without reading must still stop the
  // daemon through the drain (run_server returns 0 and removes its socket),
  // neither leaving it serving nor killing it with the failed write. The
  // client shuts its read side before sending, so the ack can never land:
  // on a Unix socket the daemon's send fails with EPIPE.
  const std::string sock = tmp_path("resil_noack.sock");
  ServerOptions so;
  so.unix_path = sock;
  int rc = -1;
  std::thread server([&] { rc = run_server(so); });

  const int fd = connect_retry(sock);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  ASSERT_TRUE(send_frame(fd, sched::MsgType::kShutdown, ""));
  ::close(fd);
  server.join();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(::access(sock.c_str(), F_OK), 0)
      << "the drain must remove the socket file";
}

// ---------------------------------------------------------------------------
// Client half: a reply torn off at any cut never decodes
// ---------------------------------------------------------------------------

TEST(ServeClient, TornOrMissingReplyNeverDecodes) {
  // The peer plays a daemon that dies mid-reply: it writes the first k bytes
  // of a kVerdictReply frame and closes. recv_frame must report the closed
  // stream, never a frame assembled from the torn bytes, for no reply at
  // all, cuts inside and at the end of the header, one past it, and one
  // short of the whole frame; the whole frame decodes.
  VerdictReplyMsg reply;
  reply.ok = true;
  reply.verdict = static_cast<std::uint8_t>(Verdict::kHolds);
  reply.targets = 4;
  std::string wire;
  sched::encode_frame(wire, sched::MsgType::kVerdictReply,
                      encode_verdict_reply(reply));
  const std::size_t header = sched::kFrameHeaderBytes;
  ASSERT_GT(wire.size(), header + 1);
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, header - 1,
                              header, header + 1, wire.size() - 1,
                              wire.size()}) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(sched::write_all(sv[1], wire.data(), k)) << k;
    ::close(sv[1]);
    sched::FrameDecoder dec;
    sched::Frame f;
    std::string err;
    const bool got = recv_frame(sv[0], dec, f, err);
    ::close(sv[0]);
    if (k < wire.size()) {
      EXPECT_FALSE(got) << "a " << k << "-byte cut of a " << wire.size()
                        << "-byte frame decoded";
      EXPECT_EQ(err, "connection closed") << "cut at " << k;
      continue;
    }
    ASSERT_TRUE(got) << err;
    EXPECT_EQ(f.type, sched::MsgType::kVerdictReply);
    VerdictReplyMsg back;
    ASSERT_TRUE(decode_verdict_reply(f.payload, back));
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.targets, 4u);
  }
}

}  // namespace
}  // namespace plankton::serve
