// A plankton_worker stand-in living on a thread of the test process: an
// ephemeral loopback listener serving one shard-worker bootstrap session at a
// time (serve_shard_worker_session), so TCP-transport tests need no second
// binary. The recording variant also decodes a MSG_PEEK copy of each
// session's kBootstrap before serving it, so a test can inspect exactly what
// every incarnation was sent.
#pragma once

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/verifier.hpp"
#include "serve/server.hpp"
#include "serve/serve.hpp"

namespace plankton::testsupport {

class ThreadWorker {
 public:
  explicit ThreadWorker(bool record = false) : record_(record) {
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
        if (record_) peek_bootstrap(conn);
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
  /// The decoded kBootstrap of every session so far (recording variant).
  [[nodiscard]] std::vector<serve::BootstrapMsg> bootstraps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bootstraps_;
  }

 private:
  /// Waits until the first frame is buffered on `conn`, then decodes a
  /// MSG_PEEK copy of it; the session itself still reads every byte.
  void peek_bootstrap(int conn) {
    std::string bytes(sched::kFrameHeaderBytes, '\0');
    for (int tries = 0; tries < 5000; ++tries) {
      const ssize_t n = ::recv(conn, bytes.data(), bytes.size(), MSG_PEEK);
      if (n <= 0) return;
      if (static_cast<std::size_t>(n) == bytes.size()) {
        if (bytes.size() > sched::kFrameHeaderBytes) break;
        std::uint64_t len = 0;
        std::memcpy(&len, bytes.data() + 8, sizeof(len));
        if (len > sched::kMaxFramePayload) return;
        bytes.resize(sched::kFrameHeaderBytes + len);
        if (len == 0) break;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sched::FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    sched::Frame frame;
    serve::BootstrapMsg bm;
    if (dec.next(frame) == sched::FrameDecoder::Status::kFrame &&
        frame.type == sched::MsgType::kBootstrap &&
        serve::decode_bootstrap(frame.payload, bm)) {
      std::lock_guard<std::mutex> lock(mu_);
      bootstraps_.push_back(std::move(bm));
    }
  }

  bool record_ = false;
  mutable std::mutex mu_;
  std::vector<serve::BootstrapMsg> bootstraps_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> sessions_{0};
  std::thread thread_;
};

}  // namespace plankton::testsupport
