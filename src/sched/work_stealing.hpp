// Dependency-aware parallel task-graph execution (paper §3.2).
//
// PEC verification jobs form a DAG (the SCC condensation of the PEC
// dependency graph); each job becomes runnable when its dependencies have
// completed. The graph runs under work stealing: per-worker deques, where a
// worker pushes jobs it unblocks onto its own deque (locality: a dependent
// PEC reads the converged outcomes its dependency just produced) and pops
// LIFO, while idle workers steal FIFO from the opposite end. Per-task
// ready-counters are atomics, so completing a task releases dependents
// without any global lock; workers park on a condition variable only when
// every deque is empty.
//
// The scheduler is deliberately generic (task indices + dependents lists):
// the Verifier feeds it the plan's SCC tasks.
//
// A task body may inject *dynamic* subtasks mid-run (TaskContext::spawn): a
// spawned job lands on the spawning worker's own deque and is stolen by idle
// workers like any static task. The Verifier spawns one job per dedup class
// member that must be re-explored natively after its representative's run.
//
// One worker runs the same loop on the calling thread and starts no thread.
// Its order is then fixed: ready tasks lowest index first, and after each
// job the jobs it released (spawned subtasks, then unblocked dependents)
// last in, first out.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace plankton::sched {

/// A DAG of schedulable tasks, indexed 0..size()-1.
struct TaskGraph {
  /// dependents[i] = tasks whose waiting count drops when i completes.
  std::vector<std::vector<std::size_t>> dependents;
  /// waiting_on[i] = number of unfinished dependencies of i (0 = ready).
  std::vector<std::size_t> waiting_on;

  [[nodiscard]] std::size_t size() const { return waiting_on.size(); }
};

/// Task id reported by TaskContext::task() for dynamically spawned subtasks
/// (they have no slot in the static graph).
inline constexpr std::size_t kDynamicTask = std::numeric_limits<std::size_t>::max();

/// Execution context of one task body.
class TaskContext {
 public:
  virtual ~TaskContext() = default;
  /// Static graph index of the running task, or kDynamicTask for a spawned
  /// subtask.
  [[nodiscard]] virtual std::size_t task() const = 0;
  [[nodiscard]] virtual int worker() const = 0;
  /// Enqueues a dynamic subtask. It is immediately runnable (no
  /// dependencies), lands on this worker's deque, and may be stolen by any
  /// idle worker.
  /// The run does not return until every spawned subtask completed. Safe to
  /// call from static and dynamic task bodies alike.
  virtual void spawn(std::function<void(TaskContext&)> fn) = 0;
};

/// Runs `body` once for every task of `graph`, never before all of the
/// task's dependencies completed, on `workers` threads (worker ids are
/// 0..workers-1; workers <= 1 is one worker on the calling thread, in the
/// order above). The graph must be acyclic. `body` must be safe to call
/// concurrently for distinct tasks; it reads its task and worker from the
/// TaskContext and may inject dynamic subtasks via spawn().
void run_task_graph(int workers, const TaskGraph& graph,
                    const std::function<void(TaskContext&)>& body);

}  // namespace plankton::sched
