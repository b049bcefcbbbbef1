// Work-stealing job system: a fixed worker pool running dependency
// graphs of tasks.
//
// Scheduling model
//   - A WorkerPool owns W worker slots. Slots 1..W-1 are dedicated
//     threads; slot 0 belongs to whichever thread is inside run() —
//     the caller participates instead of blocking, so a pool of 1 runs
//     everything inline on the caller with zero thread handoffs.
//   - Each slot has a deque. Initial ready tasks are seeded round-robin
//     across the deques by submission index; an owner takes from the
//     front of its own deque (FIFO over seeds, LIFO over continuations
//     it just unlocked — the cache-hot order), and an idle worker
//     steals from the *back* of a victim's deque (the work most remote
//     from the victim's current locality).
//   - A task's completion decrements its dependents' pending counters;
//     a dependent reaching zero is pushed onto the completing worker's
//     own deque, so per-user chains (prepare -> mine -> cells) run
//     back-to-back on one worker unless someone steals them.
//
// Determinism contract
//   Tasks communicate only through their own pre-allocated result
//   slots: a task may write state no other task reads until after the
//   graph completes, or state only its *dependents* read. Under that
//   discipline results are bit-identical regardless of worker count,
//   steal order, or how often a run is repeated — the scheduler decides
//   *when* a task runs, never *what* it computes. The eval stack
//   follows it (per-cell result slots, one reduce after run()), which
//   is what keeps the fleet/sweep goldens exact at every thread count.
//
// Failure semantics
//   A throwing task poisons its transitive dependents (they are
//   cancelled, never run) but independent tasks run to completion. The
//   failure with the lowest *submission index* — deterministic in the
//   graph, not in thread timing — is rethrown from run().
//
// Observability
//   jobs.tasks / jobs.steals / jobs.graphs / jobs.cancelled counters,
//   a jobs.queue_depth gauge, and a per-run jobs.worker_utilization
//   histogram. Every task flushes its thread-local obs spans before it
//   signals completion, so a metrics snapshot taken after run() sees
//   every span even though pool workers never exit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netmaster::jobs {

class WorkerPool;

/// Index of a task within its TaskGraph, in submission order.
using TaskId = std::size_t;

/// A single-run dependency graph of void() tasks. Build it (add /
/// add_dependency), hand it to WorkerPool::run(), then read results
/// from wherever the tasks wrote them. Graphs must be acyclic
/// (validated before the run) and are not reusable.
class TaskGraph {
 public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a task with no dependencies (yet). Returns its id.
  TaskId add(std::function<void()> fn);

  /// Adds a task that runs only after every id in `deps` completed.
  TaskId add_after(std::initializer_list<TaskId> deps,
                   std::function<void()> fn);

  /// Declares that `before` must complete before `after` starts.
  /// Duplicate edges are allowed and counted once each.
  void add_dependency(TaskId before, TaskId after);

  std::size_t size() const { return tasks_.size(); }
  bool ran() const { return ran_; }

  // --- post-run introspection (valid after WorkerPool::run returns or
  // throws) ---

  /// Wall time of the run, caller-side.
  double wall_ms() const { return wall_ms_; }
  /// True when the task was cancelled by a failing dependency.
  bool was_cancelled(TaskId id) const;

 private:
  friend class WorkerPool;

  struct Task {
    std::function<void()> fn;
    std::vector<std::uint32_t> dependents;
    std::atomic<std::uint32_t> pending{0};
    std::atomic<bool> cancelled{false};
  };

  /// Resolves run state (remaining count, busy slots) and validates
  /// acyclicity. Called by the pool, caller-side.
  void prepare(unsigned num_slots);
  /// Records the lowest-submission-index failure.
  void record_error(std::size_t index) noexcept;
  /// Records utilization telemetry and rethrows the stored failure.
  void finish();

  // Tasks live in a deque: atomics are not movable and task addresses
  // must stay stable while workers hold references.
  std::deque<Task> tasks_;
  bool ran_ = false;

  // Run state.
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> done_{false};
  std::unique_ptr<std::atomic<std::int64_t>[]> busy_ns_;
  std::size_t num_slots_ = 0;
  double wall_ms_ = 0.0;
  std::mutex error_mutex_;
  std::size_t first_error_index_ = 0;
  std::exception_ptr first_error_;
};

/// Fixed pool of worker slots executing TaskGraphs (see file comment
/// for the scheduling and determinism model). `workers` is the total
/// slot count including the caller's; a pool of 1 spawns no threads.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_workers() const { return num_workers_; }

  /// Runs the graph to completion; the calling thread participates as
  /// a worker. Rethrows the lowest-submission-index task failure, after
  /// every non-poisoned task finished. Safe to call from inside a task
  /// of this or another pool (the nested caller helps execute queued
  /// work while it waits — no worker is ever parked on a nested graph).
  void run(TaskGraph& graph);

  /// The process-wide pool, sized default_max_threads() at first use.
  static WorkerPool& shared();

 private:
  struct Item {
    TaskGraph* graph;
    std::uint32_t task;
  };
  struct WorkerDeque;

  bool try_pop(unsigned slot, Item& out);
  void push_local(unsigned slot, const Item& item);
  void execute(const Item& item, unsigned slot);
  void worker_loop(unsigned slot);
  void notify_all_workers();

  unsigned num_workers_;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stop_{false};
};

/// Runs `graph` honoring a thread cap: 0 means default_max_threads().
/// When the cap does not bind below the shared pool's width the shared
/// pool runs it; a smaller explicit cap gets a temporary pool of
/// exactly that many workers (the cost shape of a per-call thread
/// fan-out).
void run_graph(TaskGraph& graph, unsigned max_threads = 0);

}  // namespace netmaster::jobs
