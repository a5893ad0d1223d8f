// Worker transports for the shard coordinator (ROADMAP "cluster-scale
// sharding"): how run_sharded_task_graph obtains, stops, and reaps worker
// connections. A transport only provides a connected stream; the kBootstrap
// handshake, the frames, supervision and recovery belong to the coordinator
// and are identical for both:
//
//   fork (ForkWorkerTransport)   a child on the other end of a socketpair
//   tcp (TcpWorkerTransport)     pre-started plankton_worker processes, on
//                                this or other hosts
//
// Both run the same worker entry point, serve_shard_worker_session; a forked
// child inherits the coordinator's memory but reads nothing from it.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "sched/shard.hpp"

namespace plankton::sched {

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Returns a connected stream fd for worker `slot`, or -1 on failure (the
  /// coordinator's backoff paces retries). `pid` reports the local process
  /// id when the transport spawned one, -1 otherwise.
  virtual int start(std::size_t slot, pid_t& pid) = 0;

  /// Forcefully stops a worker the coordinator gave up on (hang kill,
  /// poisoned stream, missing bootstrap ack), before its fd is closed. Local
  /// transports SIGKILL; remote workers notice the close instead and
  /// recycle the session.
  virtual void terminate(std::size_t slot, pid_t pid) = 0;

  /// Disposes of the stopped worker after its fd was closed (waitpid for
  /// local processes; nothing to do remotely).
  virtual void reap(std::size_t slot, pid_t pid) = 0;
};

/// Local workers: fork + socketpair. The child closes the other workers'
/// coordinator ends (so each sees EOF when the coordinator drops it) and
/// _exits with `session`'s code on its own end — serve_shard_worker_session,
/// passed in so sched/ does not depend on core/.
class ForkWorkerTransport final : public WorkerTransport {
 public:
  explicit ForkWorkerTransport(int (*session)(int fd)) : session_(session) {}

  int start(std::size_t slot, pid_t& pid) override;
  void terminate(std::size_t slot, pid_t pid) override;
  void reap(std::size_t slot, pid_t pid) override;

 private:
  int (*session_)(int fd);
  std::vector<int> fds_;  ///< per slot: the coordinator end handed out, or -1
};

/// Remote workers over TCP. Slot s connects to addresses[s % n] (each
/// "host:port", typically one per plankton_worker process). A respawn is
/// simply a reconnect: while the remote process is down start() fails fast
/// and surviving workers absorb the reassigned tasks; once it is back
/// (plankton_worker serves sessions in an accept loop) the slot refills.
class TcpWorkerTransport final : public WorkerTransport {
 public:
  explicit TcpWorkerTransport(std::vector<std::string> addresses,
                              int connect_timeout_ms = 5000);

  int start(std::size_t slot, pid_t& pid) override;
  void terminate(std::size_t, pid_t) override {}
  void reap(std::size_t, pid_t) override {}

 private:
  std::vector<std::string> addrs_;
  int connect_timeout_ms_ = 5000;
};

}  // namespace plankton::sched
