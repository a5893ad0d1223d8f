#include "sched/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

namespace plankton::sched {
namespace {

/// Non-blocking connect bounded by `timeout_ms`, returned as a blocking fd
/// (the coordinator flips it to O_NONBLOCK with every other worker fd).
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

int ForkWorkerTransport::start(std::size_t slot, pid_t& pid) {
  pid = -1;
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return -1;
  std::fflush(nullptr);  // no duplicated stdio buffers in the child
  const pid_t child = fork();
  if (child < 0) {
    close(sv[0]);
    close(sv[1]);
    return -1;
  }
  if (child == 0) {
    close(sv[0]);
    for (const int fd : fds_) {
      if (fd >= 0) close(fd);  // other workers' coordinator ends: not ours
    }
    _exit(session_(sv[1]));
  }
  close(sv[1]);
  if (fds_.size() <= slot) fds_.resize(slot + 1, -1);
  fds_[slot] = sv[0];
  pid = child;
  return sv[0];
}

void ForkWorkerTransport::terminate(std::size_t, pid_t pid) {
  if (pid > 0) kill(pid, SIGKILL);
}

void ForkWorkerTransport::reap(std::size_t slot, pid_t pid) {
  if (slot < fds_.size()) fds_[slot] = -1;  // the coordinator closed it
  if (pid > 0) {
    int status = 0;
    (void)waitpid(pid, &status, 0);
  }
}

TcpWorkerTransport::TcpWorkerTransport(std::vector<std::string> addresses,
                                       int connect_timeout_ms)
    : addrs_(std::move(addresses)),
      connect_timeout_ms_(std::max(connect_timeout_ms, 1)) {}

int TcpWorkerTransport::start(std::size_t slot, pid_t& pid) {
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
  return fd;
}

}  // namespace plankton::sched
