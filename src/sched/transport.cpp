#include "sched/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

namespace plankton::sched {
namespace {

/// Non-blocking connect bounded by `timeout_ms`, returned as a blocking fd
/// (the bootstrap handshake is sequential anyway; the coordinator flips it
/// to O_NONBLOCK once the worker is accepted).
int connect_with_timeout(const std::string& host, const std::string& port,
                         int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0) return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int flags = fcntl(fd, F_GETFL, 0);
    (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = poll(&pfd, 1, timeout_ms) == 1 ? 0 : -1;
      if (rc == 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
          rc = -1;
        }
      }
    }
    if (rc == 0) {
      (void)fcntl(fd, F_SETFL, flags);
      break;
    }
    close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  return fd;
}

}  // namespace

TcpWorkerTransport::TcpWorkerTransport(std::vector<std::string> addresses,
                                       std::string bootstrap_payload,
                                       std::uint64_t expected_plan_hash,
                                       int connect_timeout_ms)
    : TcpWorkerTransport(
          std::move(addresses),
          PayloadFactory([payload = std::move(bootstrap_payload)](
                             std::size_t, int) { return payload; }),
          expected_plan_hash, connect_timeout_ms) {}

TcpWorkerTransport::TcpWorkerTransport(std::vector<std::string> addresses,
                                       PayloadFactory payload_factory,
                                       std::uint64_t expected_plan_hash,
                                       int connect_timeout_ms)
    : addrs_(std::move(addresses)),
      payload_factory_(std::move(payload_factory)),
      expected_plan_hash_(expected_plan_hash),
      connect_timeout_ms_(std::max(connect_timeout_ms, 1)) {}

int TcpWorkerTransport::start(std::size_t slot, int generation, pid_t& pid) {
  pid = -1;
  if (addrs_.empty()) return -1;
  const std::string& addr = addrs_[slot % addrs_.size()];
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    std::fprintf(stderr, "plankton tcp transport: bad worker address '%s'\n",
                 addr.c_str());
    return -1;
  }
  const int fd = connect_with_timeout(addr.substr(0, colon),
                                      addr.substr(colon + 1),
                                      connect_timeout_ms_);
  if (fd < 0) return -1;
  // Keepalive with LAN-aggressive probing: a half-open worker connection
  // (host gone without a FIN) must die in seconds so the supervision ladder
  // reassigns the task, instead of the kernel's two-hour default.
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
#if defined(TCP_KEEPIDLE)
  const int idle = 5, intvl = 2, cnt = 5;
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &intvl, sizeof(intvl));
  setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &cnt, sizeof(cnt));
#endif
  std::string out;
  encode_frame(out, MsgType::kBootstrap, payload_factory_(slot, generation));
  // write_all's MSG_NOSIGNAL: a worker that dies between connect and
  // bootstrap surfaces as EPIPE, never SIGPIPE.
  if (!write_all(fd, out)) {
    close(fd);
    return -1;
  }
  // Block for the ack under a budget generous enough for the worker to
  // parse the config and rebuild the plan before answering.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_timeout_ms_) * 4;
  FrameDecoder decoder;
  Frame frame;
  char buf[4096];
  for (;;) {
    const FrameDecoder::Status st = decoder.next(frame);
    if (st == FrameDecoder::Status::kFrame) break;
    if (st == FrameDecoder::Status::kError ||
        std::chrono::steady_clock::now() >= deadline) {
      close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) {
      close(fd);
      return -1;
    }
    if (pr <= 0) continue;
    const ssize_t r = recv(fd, buf, sizeof(buf), 0);
    if (r > 0) {
      decoder.feed(buf, static_cast<std::size_t>(r));
    } else if (r == 0 || errno != EINTR) {
      close(fd);
      return -1;
    }
  }
  BootstrapAckMsg ack;
  if (frame.type != MsgType::kBootstrapAck ||
      !decode_bootstrap_ack(frame.payload, ack) || decoder.buffered() != 0) {
    std::fprintf(stderr,
                 "plankton tcp transport: worker %s spoke a bad handshake\n",
                 addr.c_str());
    close(fd);
    return -1;
  }
  if (ack.ok == 0 || ack.plan_hash != expected_plan_hash_) {
    std::fprintf(
        stderr, "plankton tcp transport: worker %s refused bootstrap (%s)\n",
        addr.c_str(), ack.ok == 0 ? ack.error.c_str() : "plan hash mismatch");
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace plankton::sched
