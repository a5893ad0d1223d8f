// plankton_worker: remote shard worker daemon. Listens on a loopback TCP
// port and serves one shard-coordinator connection at a time through
// serve_shard_worker_session, the entry point forked shard workers run too:
// each connection bootstraps the verification plan from the coordinator's
// kBootstrap blob (rendered config + policy spec + dedup classes +
// exploration options), answers with the locally derived plan hash, then
// runs the shard worker session until kShutdown/EOF. Point a coordinator at
// it with `plankton_verify --shards N --tcp-workers host:port[,host:port...]`.
//
//   plankton_worker --tcp 7421
//   plankton_worker --tcp 7421 --once       # serve one session, then exit
//
// Exit codes: 0 clean (--once session done or SIGTERM-free loop never
// exits), 3 setup/usage error. Per-session protocol failures are logged
// and the daemon keeps accepting.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/verifier.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: plankton_worker --tcp <port> [--once]\n"
               "serves shard-coordinator bootstrap connections on loopback\n");
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

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "plankton_worker: --tcp needs a value\n");
        return 3;
      }
      port = std::atoi(argv[++i]);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "plankton_worker: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }
  if (port <= 0 || port > 65535) {
    usage();
    return 3;
  }
  // A coordinator that dies mid-write must surface as EPIPE on this worker,
  // not a SIGPIPE that kills the daemon (serve_shard_worker_session sets
  // this too; doing it before the first accept closes the race).
  ::signal(SIGPIPE, SIG_IGN);

  std::string error;
  const int listen_fd = listen_tcp(port, error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "plankton_worker: %s\n", error.c_str());
    return 3;
  }
  std::fprintf(stderr, "plankton_worker: listening on 127.0.0.1:%d\n", port);
  for (;;) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "plankton_worker: accept: %s\n",
                   std::strerror(errno));
      ::close(listen_fd);
      return 3;
    }
    const int rc = plankton::serve_shard_worker_session(conn);
    ::close(conn);
    if (rc != 0) {
      std::fprintf(stderr, "plankton_worker: session ended with code %d\n", rc);
    }
    if (once) break;
  }
  ::close(listen_fd);
  return 0;
}
