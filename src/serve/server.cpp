#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <list>

namespace plankton::serve {

namespace {

/// SIGTERM/SIGINT request a graceful drain: the loop notices the flag at the
/// next tick (or EINTR), finishes whatever request is in flight (dispatch is
/// synchronous, so "in flight" always completes before the flag is checked),
/// compacts the journal, and returns 0.
volatile std::sig_atomic_t g_drain_requested = 0;

void on_drain_signal(int) { g_drain_requested = 1; }

int listen_unix(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "unix socket path too long";
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    error = std::string("bind/listen '" + path + "': ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(int port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    error = std::string("bind/listen tcp port ") + std::to_string(port) + ": " +
            std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

using Clock = std::chrono::steady_clock;

/// One multiplexed client connection.
struct ClientConn {
  int fd = -1;
  sched::FrameDecoder decoder;
  Clock::time_point last_activity;
};

enum class Dispatch { kKeep, kClose, kShutdown };

/// One decoded frame: dispatch + reply. Processing is synchronous — the
/// resident Verifier is single-threaded state — so a kQuery blocks the loop
/// for its duration; the read deadline below is about *stalled sockets*,
/// not slow verification. A reply that cannot be written closes the
/// connection and keeps the daemon.
Dispatch dispatch_frame(int fd, const sched::Frame& frame, ServeState& state) {
  VerdictReplyMsg reply;
  std::string error;
  switch (frame.type) {
    case sched::MsgType::kLoadNet: {
      LoadNetMsg m;
      if (!decode_load_net(frame.payload, m)) {
        reply.error = "malformed kLoadNet payload";
      } else if (state.load(m.config_text, error)) {
        reply.ok = true;  // journal append + fsync already happened in load()
      } else {
        reply.error = error;
      }
      if (!reply.ok) reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
      break;
    }
    case sched::MsgType::kApplyDelta: {
      ApplyDeltaMsg m;
      if (!decode_apply_delta(frame.payload, m)) {
        reply.error = "malformed kApplyDelta payload";
      } else if (state.apply_delta(m, error)) {
        reply.ok = true;  // ditto: the ack below is behind the fsync
        reply.moved = state.last_moved();
      } else {
        reply.error = error;
      }
      if (!reply.ok) reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
      break;
    }
    case sched::MsgType::kQuery: {
      QueryMsg m;
      if (!decode_query(frame.payload, m)) {
        reply.error = "malformed kQuery payload";
        reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
      } else {
        reply = state.query(m);
      }
      break;
    }
    case sched::MsgType::kCacheStats: {
      return send_frame(fd, sched::MsgType::kCacheStats,
                        encode_cache_stats(state.cache_stats()))
                 ? Dispatch::kKeep
                 : Dispatch::kClose;
    }
    case sched::MsgType::kShutdown: {
      // Compact before acking so a client that saw ok=true can rely on the
      // snapshot, the cache's keys included, being on disk.
      std::string save_error;
      if (!state.compact_journal(save_error)) {
        std::fprintf(stderr, "plankton_serve: journal compaction failed: %s\n",
                     save_error.c_str());
      }
      reply.ok = true;
      (void)send_frame(fd, sched::MsgType::kVerdictReply,
                       encode_verdict_reply(reply));
      return Dispatch::kShutdown;
    }
    default: {
      // A daemon → client frame type is valid PKS1 but meaningless here.
      reply.error = "unexpected frame type on serve socket";
      reply.verdict = static_cast<std::uint8_t>(Verdict::kError);
      break;
    }
  }
  return send_frame(fd, sched::MsgType::kVerdictReply,
                    encode_verdict_reply(reply))
             ? Dispatch::kKeep
             : Dispatch::kClose;
}

void enable_keepalive(int fd) {
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
#if defined(TCP_KEEPIDLE)
  // Aggressive-for-a-LAN probing: a half-open peer (yanked cable, frozen
  // VM) is detected in ~15 s instead of the kernel's two-hour default.
  const int idle = 5, intvl = 2, cnt = 5;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &intvl, sizeof(intvl));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &cnt, sizeof(cnt));
#endif
}

}  // namespace

int run_server(const ServerOptions& opts) {
  // Belt and braces alongside MSG_NOSIGNAL: any write path that slips
  // through without the flag (or a platform that lacks it) still must not
  // let a disconnecting client kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  // Graceful drain on SIGTERM/SIGINT. sigaction without SA_RESTART so a
  // signal interrupts select() instead of waiting out the tick.
  g_drain_requested = 0;
  struct sigaction sa {};
  sa.sa_handler = on_drain_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::string error;
  ServeState state(opts.verify);
  if (!opts.journal_path.empty()) {
    if (!state.attach_journal(opts.journal_path, error)) {
      std::fprintf(stderr, "plankton_serve: %s\n", error.c_str());
      return 3;
    }
    Journal::ReplayResult replayed;
    if (!state.replay_journal(replayed, error)) {
      std::fprintf(stderr, "plankton_serve: journal replay failed: %s\n",
                   error.c_str());
      return 3;
    }
    if (replayed.applied != 0 || replayed.torn_tail) {
      std::fprintf(stderr,
                   "plankton_serve: journal replayed %llu record(s)%s\n",
                   static_cast<unsigned long long>(replayed.applied),
                   replayed.torn_tail ? " (torn tail dropped)" : "");
    }
  }

  int unix_fd = -1;
  int tcp_fd = -1;
  if (!opts.unix_path.empty()) {
    unix_fd = listen_unix(opts.unix_path, error);
    if (unix_fd < 0) {
      std::fprintf(stderr, "plankton_serve: %s\n", error.c_str());
      return 3;
    }
  }
  if (opts.tcp_port != 0) {
    tcp_fd = listen_tcp(opts.tcp_port, error);
    if (tcp_fd < 0) {
      std::fprintf(stderr, "plankton_serve: %s\n", error.c_str());
      if (unix_fd >= 0) ::close(unix_fd);
      return 3;
    }
  }
  if (unix_fd < 0 && tcp_fd < 0) {
    std::fprintf(stderr, "plankton_serve: no listener configured\n");
    return 3;
  }

  std::list<ClientConn> clients;
  bool shutdown = false;
  char buf[1 << 16];
  while (!shutdown && g_drain_requested == 0) {
    fd_set fds;
    FD_ZERO(&fds);
    int maxfd = -1;
    const auto arm = [&fds, &maxfd](int fd) {
      FD_SET(fd, &fds);
      if (fd > maxfd) maxfd = fd;
    };
    if (unix_fd >= 0) arm(unix_fd);
    if (tcp_fd >= 0) arm(tcp_fd);
    for (const ClientConn& c : clients) arm(c.fd);
    // The periodic tick: even with every client silent, the loop wakes to
    // enforce the read deadline (the old null-timeout select slept forever
    // with a client stalled mid-frame, wedging everyone else).
    timeval tick{};
    tick.tv_usec = 50 * 1000;
    const int ready = ::select(maxfd + 1, &fds, nullptr, nullptr, &tick);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "plankton_serve: select: %s\n",
                   std::strerror(errno));
      break;
    }
    const auto now = Clock::now();

    // Accept new connections (both listeners may be ready in one tick).
    for (const int listener : {unix_fd, tcp_fd}) {
      if (ready <= 0 || listener < 0 || !FD_ISSET(listener, &fds)) continue;
      const int conn = ::accept(listener, nullptr, nullptr);
      if (conn < 0) continue;
      if (clients.size() >= opts.max_clients) {
        // Graceful refusal: a parseable error reply, then close — the
        // client sees "capacity", not a hang or a RST.
        VerdictReplyMsg refuse;
        refuse.error = "server at connection capacity";
        refuse.verdict = static_cast<std::uint8_t>(Verdict::kError);
        (void)send_frame(conn, sched::MsgType::kVerdictReply,
                         encode_verdict_reply(refuse));
        ::close(conn);
        continue;
      }
      if (listener == tcp_fd) enable_keepalive(conn);
      ClientConn c;
      c.fd = conn;
      c.last_activity = now;
      clients.push_back(std::move(c));
    }

    for (auto it = clients.begin(); it != clients.end() && !shutdown;) {
      ClientConn& c = *it;
      bool close_conn = false;
      if (ready > 0 && FD_ISSET(c.fd, &fds)) {
        const ssize_t r = ::read(c.fd, buf, sizeof buf);
        if (r <= 0) {
          close_conn = !(r < 0 && errno == EINTR);
        } else {
          c.last_activity = Clock::now();
          c.decoder.feed(buf, static_cast<std::size_t>(r));
          sched::Frame frame;
          for (;;) {
            const auto status = c.decoder.next(frame);
            if (status == sched::FrameDecoder::Status::kNeedMore) break;
            if (status == sched::FrameDecoder::Status::kError) {
              std::fprintf(stderr, "plankton_serve: bad frame: %s\n",
                           c.decoder.error().c_str());
              close_conn = true;
              break;
            }
            const Dispatch d = dispatch_frame(c.fd, frame, state);
            if (d == Dispatch::kShutdown) {
              shutdown = true;
              break;
            }
            if (d == Dispatch::kClose) {
              close_conn = true;
              break;
            }
          }
        }
      }
      // Mid-frame stall: bytes are buffered but the frame never finishes.
      if (!close_conn && !shutdown && opts.read_deadline_ms > 0 &&
          c.decoder.buffered() > 0 &&
          now - c.last_activity >
              std::chrono::milliseconds(opts.read_deadline_ms)) {
        close_conn = true;
      }
      if (close_conn || shutdown) {
        ::close(c.fd);
        it = clients.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Drain: identical for kShutdown (already compacted in dispatch, the
  // repeat is idempotent) and SIGTERM/SIGINT.
  std::string drain_error;
  if (!state.compact_journal(drain_error)) {
    std::fprintf(stderr, "plankton_serve: journal compaction failed: %s\n",
                 drain_error.c_str());
  }
  for (ClientConn& c : clients) ::close(c.fd);
  if (unix_fd >= 0) {
    ::close(unix_fd);
    ::unlink(opts.unix_path.c_str());
  }
  if (tcp_fd >= 0) ::close(tcp_fd);
  return 0;
}

int connect_unix(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "unix socket path too long";
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    error = std::string("connect '" + path + "': ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    error = std::string("connect tcp port ") + std::to_string(port) + ": " +
            std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_frame(int fd, sched::MsgType type, std::string_view payload) {
  std::string out;
  sched::encode_frame(out, type, payload);
  return sched::write_all(fd, out);
}

bool recv_frame(int fd, sched::FrameDecoder& dec, sched::Frame& out,
                std::string& error) {
  char buf[1 << 16];
  for (;;) {
    const auto status = dec.next(out);
    if (status == sched::FrameDecoder::Status::kFrame) return true;
    if (status == sched::FrameDecoder::Status::kError) {
      error = "stream poisoned: " + dec.error();
      return false;
    }
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      error = r == 0 ? "connection closed" : std::strerror(errno);
      return false;
    }
    dec.feed(buf, static_cast<std::size_t>(r));
  }
}

}  // namespace plankton::serve
