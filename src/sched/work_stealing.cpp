#include "sched/work_stealing.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

namespace plankton::sched {
namespace {

using Body = std::function<void(TaskContext&)>;

// Jobs are encoded as signed ids: >= 0 is an index into the static graph,
// < 0 addresses slot -(job + 1) of the dynamic-task slab.
using Job = std::int64_t;

[[nodiscard]] constexpr Job encode_dynamic(std::size_t slot) {
  return -static_cast<Job>(slot) - 1;
}
[[nodiscard]] constexpr std::size_t decode_dynamic(Job job) {
  return static_cast<std::size_t>(-job - 1);
}

/// Spawned-subtask storage. Slots are only appended while the run is live;
/// they are addressed by stable index so deques can carry plain ints. Each
/// slot is executed exactly once: take() moves the closure out, so captured
/// state (e.g. a split-off snapshot batch) is freed when the subtask runs,
/// not when the whole graph finishes.
class DynSlab {
 public:
  std::size_t add(Body fn) {
    const std::scoped_lock lock(mu_);
    slots_.push_back(std::make_unique<Body>(std::move(fn)));
    return slots_.size() - 1;
  }

  Body take(std::size_t slot) {
    const std::scoped_lock lock(mu_);
    Body fn = std::move(*slots_[slot]);
    slots_[slot].reset();
    return fn;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Body>> slots_;
};

// ---------------------------------------------------------------------------
// Work stealing
// ---------------------------------------------------------------------------

/// One worker's job deque. The owner pushes/pops at the back (LIFO — depth
/// first through the dependency DAG, hot outcome data); thieves take from
/// the front (FIFO — the oldest, most likely largest subtree). A plain
/// mutex per deque suffices: it is only contended during steals, which are
/// rare when the graph has enough width.
struct alignas(64) WorkerDeque {
  std::mutex mu;
  std::deque<Job> jobs;
};

class WorkStealingRun {
 public:
  WorkStealingRun(int workers, const TaskGraph& graph, const Body& body)
      : graph_(graph),
        body_(body),
        deques_(static_cast<std::size_t>(workers)),
        waiting_(std::make_unique<std::atomic<std::size_t>[]>(graph.size())),
        remaining_(graph.size()) {
    for (std::size_t i = 0; i < graph.size(); ++i) {
      waiting_[i].store(graph.waiting_on[i], std::memory_order_relaxed);
    }
    // Seed ready tasks round-robin so all workers start with work, in
    // descending index so that each owner pops its lowest one first.
    std::size_t w = 0;
    for (std::size_t i = graph.size(); i > 0; --i) {
      if (graph.waiting_on[i - 1] != 0) continue;
      deques_[w % deques_.size()].jobs.push_back(static_cast<Job>(i - 1));
      queued_.fetch_add(1, std::memory_order_relaxed);
      w++;
    }
  }

  /// One worker runs the loop on the calling thread and starts no thread.
  void run() {
    if (remaining_.load(std::memory_order_relaxed) == 0) return;
    if (deques_.size() == 1) {
      worker_loop(0);
      return;
    }
    std::vector<std::thread> threads;
    threads.reserve(deques_.size());
    for (std::size_t w = 0; w < deques_.size(); ++w) {
      threads.emplace_back([this, w] { worker_loop(static_cast<int>(w)); });
    }
    for (auto& t : threads) t.join();
  }

 private:
  class Ctx final : public TaskContext {
   public:
    Ctx(WorkStealingRun& run, std::size_t task, int worker)
        : run_(run), task_(task), worker_(worker) {}
    [[nodiscard]] std::size_t task() const override { return task_; }
    [[nodiscard]] int worker() const override { return worker_; }
    void spawn(Body fn) override { run_.spawn(worker_, std::move(fn)); }

   private:
    WorkStealingRun& run_;
    std::size_t task_;
    int worker_;
  };

  void spawn(int w, Body fn) {
    // Count the subtask as outstanding *before* it becomes stealable, so
    // remaining_ can never hit zero while a spawned job is in flight.
    remaining_.fetch_add(1, std::memory_order_acq_rel);
    push_own(w, encode_dynamic(dyn_.add(std::move(fn))));
  }

  bool try_pop_own(int w, Job& job) {
    WorkerDeque& d = deques_[static_cast<std::size_t>(w)];
    std::scoped_lock lock(d.mu);
    if (d.jobs.empty()) return false;
    job = d.jobs.back();
    d.jobs.pop_back();
    return true;
  }

  bool try_steal(int w, Job& job) {
    const std::size_t n = deques_.size();
    for (std::size_t k = 1; k < n; ++k) {
      WorkerDeque& d = deques_[(static_cast<std::size_t>(w) + k) % n];
      std::scoped_lock lock(d.mu);
      if (d.jobs.empty()) continue;
      job = d.jobs.front();
      d.jobs.pop_front();
      return true;
    }
    return false;
  }

  void push_own(int w, Job job) {
    // Increment before the push: a thief can steal (and decrement) the
    // instant the deque lock drops, and a decrement-first interleaving
    // would wrap `queued_` past zero, leaving idle workers busy-spinning
    // on a phantom count.
    queued_.fetch_add(1, std::memory_order_release);
    {
      WorkerDeque& d = deques_[static_cast<std::size_t>(w)];
      std::scoped_lock lock(d.mu);
      d.jobs.push_back(job);
    }
    // Lock prevents a lost wakeup: an idle worker re-checks `queued_` under
    // this mutex before sleeping.
    { std::scoped_lock lock(sleep_mu_); }
    sleep_cv_.notify_one();
  }

  void complete(int w, Job job) {
    if (job >= 0) {
      for (const std::size_t d : graph_.dependents[static_cast<std::size_t>(job)]) {
        if (waiting_[d].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          push_own(w, static_cast<Job>(d));
        }
      }
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      { std::scoped_lock lock(sleep_mu_); }
      sleep_cv_.notify_all();
    }
  }

  void worker_loop(int w) {
    while (true) {
      Job job = 0;
      if (try_pop_own(w, job) || try_steal(w, job)) {
        queued_.fetch_sub(1, std::memory_order_acquire);
        if (job >= 0) {
          Ctx ctx(*this, static_cast<std::size_t>(job), w);
          body_(ctx);
        } else {
          Ctx ctx(*this, kDynamicTask, w);
          dyn_.take(decode_dynamic(job))(ctx);
        }
        complete(w, job);
        continue;
      }
      std::unique_lock lock(sleep_mu_);
      if (remaining_.load(std::memory_order_acquire) == 0) return;
      if (queued_.load(std::memory_order_acquire) != 0) continue;  // retry
      sleep_cv_.wait(lock, [this] {
        return queued_.load(std::memory_order_acquire) != 0 ||
               remaining_.load(std::memory_order_acquire) == 0;
      });
    }
  }

  const TaskGraph& graph_;
  const Body& body_;
  std::vector<WorkerDeque> deques_;
  std::unique_ptr<std::atomic<std::size_t>[]> waiting_;
  std::atomic<std::size_t> remaining_;
  std::atomic<std::size_t> queued_{0};
  DynSlab dyn_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

}  // namespace

void run_task_graph(int workers, const TaskGraph& graph,
                    const std::function<void(TaskContext&)>& body) {
  WorkStealingRun run(workers < 1 ? 1 : workers, graph, body);
  run.run();
}

}  // namespace plankton::sched
