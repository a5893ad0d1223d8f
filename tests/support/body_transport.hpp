// A worker transport for coordinator unit tests: forked workers that run a
// synthetic task body instead of a bootstrapped Verifier. It forks through
// the real sched::ForkWorkerTransport; each child reads its kBootstrap frame
// — a serve::BootstrapMsg carrying only the heartbeat cadence and the
// incarnation's faults (see payload()) — answers kBootstrapAck with
// `ack_hash`, and runs sched::run_worker_session with the test's body. With
// `ack` off, children read their bootstrap and then stay silent.
#pragma once

#include <unistd.h>

#include <functional>
#include <string>
#include <vector>

#include "sched/transport.hpp"
#include "serve/server.hpp"
#include "serve/serve.hpp"

namespace plankton::testsupport {

class BodyTransport final : public sched::WorkerTransport {
 public:
  using Body = std::function<std::vector<PecReport>(std::size_t task,
                                                     OutcomeStore& upstream)>;
  static constexpr std::uint64_t kPlanHash = 0x9e3779b97f4a7c15ull;

  BodyTransport(const Network& net, const PecSet& pecs, std::size_t task_count,
                Body body)
      : net_(net), pecs_(pecs), task_count_(task_count), body_(std::move(body)) {}

  /// The bootstrap builder to hand run_sharded_task_graph: `opts`' heartbeat
  /// cadence and `plan`'s faults for each incarnation, resolved the way
  /// Verifier resolves them.
  static std::function<std::string(std::size_t, int)> payload(
      const sched::ShardRunOptions& opts, sched::FaultPlan plan = {}) {
    return [heartbeat = opts.heartbeat_interval_ms, plan](std::size_t slot,
                                                          int generation) {
      serve::BootstrapMsg bm;
      bm.heartbeat_interval_ms = heartbeat;
      const sched::WorkerFaults faults =
          plan.for_worker(static_cast<int>(slot), generation);
      bm.fault_plan = sched::FaultPlan{.faults = faults}.str();
      return serve::encode_bootstrap(bm);
    };
  }

  bool ack = true;
  std::uint64_t ack_hash = kPlanHash;

  int start(std::size_t slot, pid_t& pid) override {
    current_ = this;  // the child reaches its transport through this
    return fork_.start(slot, pid);
  }
  void terminate(std::size_t slot, pid_t pid) override {
    fork_.terminate(slot, pid);
  }
  void reap(std::size_t slot, pid_t pid) override { fork_.reap(slot, pid); }

 private:
  static int child_session(int fd) { return current_->serve(fd); }

  int serve(int fd) {
    sched::FrameDecoder dec;
    sched::Frame frame;
    std::string err;
    serve::BootstrapMsg bm;
    sched::FaultPlan faults;
    if (!serve::recv_frame(fd, dec, frame, err) ||
        frame.type != sched::MsgType::kBootstrap ||
        !serve::decode_bootstrap(frame.payload, bm) ||
        !sched::parse_fault_plan(bm.fault_plan, faults, err)) {
      return 3;
    }
    if (!ack) {
      char c;
      while (read(fd, &c, 1) > 0) {
      }
      return 0;
    }
    sched::BootstrapAckMsg reply;
    reply.ok = 1;
    reply.plan_hash = ack_hash;
    if (!serve::send_frame(fd, sched::MsgType::kBootstrapAck,
                           sched::encode_bootstrap_ack(reply))) {
      return 2;
    }
    return sched::run_worker_session(fd, net_, pecs_, task_count_,
                                     bm.heartbeat_interval_ms, faults.faults,
                                     body_);
  }

  static inline BodyTransport* current_ = nullptr;

  const Network& net_;
  const PecSet& pecs_;
  std::size_t task_count_;
  Body body_;
  sched::ForkWorkerTransport fork_{&child_session};
};

}  // namespace plankton::testsupport
