// A plankton_worker stand-in living on a thread of the test process: an
// ephemeral loopback listener serving one shard-worker bootstrap session at a
// time (serve_shard_worker_session), so TCP-transport tests need no second
// binary.
#pragma once

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/verifier.hpp"
#include "serve/server.hpp"

namespace plankton::testsupport {

class ThreadWorker {
 public:
  ThreadWorker() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // ephemeral
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) return;
        if (stop_.load(std::memory_order_acquire)) {
          ::close(conn);
          return;
        }
        sessions_.fetch_add(1, std::memory_order_relaxed);
        serve_shard_worker_session(conn);
        ::close(conn);
      }
    });
  }
  ~ThreadWorker() {
    stop_.store(true, std::memory_order_release);
    std::string err;
    const int wake = serve::connect_tcp(port_, err);  // unblock accept
    if (wake >= 0) ::close(wake);
    thread_.join();
    ::close(listen_fd_);
  }
  ThreadWorker(const ThreadWorker&) = delete;
  ThreadWorker& operator=(const ThreadWorker&) = delete;

  [[nodiscard]] std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  [[nodiscard]] int sessions() const {
    return sessions_.load(std::memory_order_relaxed);
  }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> sessions_{0};
  std::thread thread_;
};

}  // namespace plankton::testsupport
