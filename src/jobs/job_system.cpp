#include "jobs/job_system.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "jobs/threads.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace netmaster::jobs {

namespace {

using Clock = std::chrono::steady_clock;

/// Cached instrument references — resolved once per process.
struct JobMetrics {
  obs::Counter& tasks;
  obs::Counter& steals;
  obs::Counter& graphs;
  obs::Counter& cancelled;
  obs::Gauge& queue_depth;
  obs::Histogram& worker_utilization;

  static JobMetrics& get() {
    static JobMetrics m{
        obs::Registry::global().counter("jobs.tasks"),
        obs::Registry::global().counter("jobs.steals"),
        obs::Registry::global().counter("jobs.graphs"),
        obs::Registry::global().counter("jobs.cancelled"),
        obs::Registry::global().gauge("jobs.queue_depth"),
        obs::Registry::global().histogram("jobs.worker_utilization",
                                          obs::fraction_bounds()),
    };
    return m;
  }
};

/// Which pool (if any) the current thread is a worker of, and its slot.
/// Dedicated workers set it for their lifetime; external callers run as
/// slot 0 of whatever pool they hand a graph to.
struct WorkerTls {
  WorkerPool* pool = nullptr;
  unsigned slot = 0;
};
thread_local WorkerTls g_worker_tls;

}  // namespace

// ---------------------------------------------------------------------------
// TaskGraph

TaskId TaskGraph::add(std::function<void()> fn) {
  NM_REQUIRE(!ran_, "TaskGraph::add after the graph ran");
  NM_REQUIRE(static_cast<bool>(fn), "TaskGraph::add requires a callable");
  tasks_.emplace_back();
  tasks_.back().fn = std::move(fn);
  return tasks_.size() - 1;
}

TaskId TaskGraph::add_after(std::initializer_list<TaskId> deps,
                            std::function<void()> fn) {
  const TaskId id = add(std::move(fn));
  for (const TaskId dep : deps) add_dependency(dep, id);
  return id;
}

void TaskGraph::add_dependency(TaskId before, TaskId after) {
  NM_REQUIRE(!ran_, "TaskGraph::add_dependency after the graph ran");
  NM_REQUIRE(before < tasks_.size() && after < tasks_.size(),
             "TaskGraph dependency references an unknown task");
  NM_REQUIRE(before != after, "a task cannot depend on itself");
  tasks_[after].pending.fetch_add(1, std::memory_order_relaxed);
  tasks_[before].dependents.push_back(static_cast<std::uint32_t>(after));
}

void TaskGraph::prepare(unsigned num_slots) {
  NM_REQUIRE(!ran_, "a TaskGraph can only run once");
  ran_ = true;
  num_slots_ = num_slots;
  remaining_.store(tasks_.size(), std::memory_order_relaxed);
  done_.store(tasks_.empty(), std::memory_order_relaxed);
  first_error_index_ = std::numeric_limits<std::size_t>::max();
  first_error_ = nullptr;
  busy_ns_ = std::make_unique<std::atomic<std::int64_t>[]>(num_slots);
  for (std::size_t w = 0; w < num_slots; ++w) {
    busy_ns_[w].store(0, std::memory_order_relaxed);
  }

  // Acyclicity check (Kahn): a cycle would make the run hang forever,
  // so it is rejected up front, deterministically.
  std::vector<std::uint32_t> pending(tasks_.size());
  std::vector<std::uint32_t> ready;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    pending[i] = tasks_[i].pending.load(std::memory_order_relaxed);
    if (pending[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    ++visited;
    for (const std::uint32_t d : tasks_[v].dependents) {
      if (--pending[d] == 0) ready.push_back(d);
    }
  }
  NM_REQUIRE(visited == tasks_.size(),
             "task graph contains a dependency cycle");
}

void TaskGraph::record_error(std::size_t index) noexcept {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (index < first_error_index_) {
    first_error_index_ = index;
    first_error_ = std::current_exception();
  }
}

void TaskGraph::finish() {
  if (wall_ms_ > 0.0) {
    JobMetrics& metrics = JobMetrics::get();
    for (std::size_t w = 0; w < num_slots_; ++w) {
      const double busy =
          static_cast<double>(busy_ns_[w].load(std::memory_order_relaxed)) *
          1e-6;
      if (busy > 0.0) {
        metrics.worker_utilization.add(std::min(1.0, busy / wall_ms_));
      }
    }
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

bool TaskGraph::was_cancelled(TaskId id) const {
  NM_REQUIRE(id < tasks_.size(), "was_cancelled task id out of range");
  return tasks_[id].cancelled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// WorkerPool

struct WorkerPool::WorkerDeque {
  std::mutex mutex;
  std::deque<Item> items;
};

WorkerPool::WorkerPool(unsigned workers) : num_workers_(workers) {
  NM_REQUIRE(workers >= 1, "a worker pool needs at least one slot");
  deques_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  // Slot 0 is the caller's; only 1..W-1 get dedicated threads.
  threads_.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool(std::max(1u, default_max_threads()));
  return pool;
}

void WorkerPool::notify_all_workers() {
  // Empty critical section: orders the notify against a waiter that
  // checked its predicate and is about to sleep.
  { const std::lock_guard<std::mutex> lock(wake_mutex_); }
  wake_cv_.notify_all();
}

void WorkerPool::push_local(unsigned slot, const Item& item) {
  {
    const std::lock_guard<std::mutex> lock(deques_[slot]->mutex);
    deques_[slot]->items.push_front(item);
  }
  queued_.fetch_add(1, std::memory_order_release);
  JobMetrics::get().queue_depth.add(1.0);
  { const std::lock_guard<std::mutex> lock(wake_mutex_); }
  wake_cv_.notify_one();
}

bool WorkerPool::try_pop(unsigned slot, Item& out) {
  // Own deque first, from the front (continuations LIFO, seeds FIFO).
  {
    WorkerDeque& own = *deques_[slot];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.items.empty()) {
      out = own.items.front();
      own.items.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      JobMetrics::get().queue_depth.add(-1.0);
      return true;
    }
  }
  // Steal from the back of the first non-empty victim.
  for (unsigned offset = 1; offset < num_workers_; ++offset) {
    WorkerDeque& victim = *deques_[(slot + offset) % num_workers_];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.items.empty()) {
      out = victim.items.back();
      victim.items.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      JobMetrics& metrics = JobMetrics::get();
      metrics.queue_depth.add(-1.0);
      metrics.steals.add(1);
      return true;
    }
  }
  return false;
}

void WorkerPool::execute(const Item& item, unsigned slot) {
  TaskGraph& graph = *item.graph;
  TaskGraph::Task& task = graph.tasks_[item.task];
  JobMetrics& metrics = JobMetrics::get();

  const auto t0 = Clock::now();
  bool poisoned = task.cancelled.load(std::memory_order_relaxed);
  if (poisoned) {
    metrics.cancelled.add(1);
  } else {
    try {
      task.fn();
    } catch (...) {
      graph.record_error(item.task);
      poisoned = true;
    }
  }
  // Poison propagates *before* dependents can be released below.
  if (poisoned) {
    for (const std::uint32_t d : task.dependents) {
      graph.tasks_[d].cancelled.store(true, std::memory_order_relaxed);
    }
  }
  const std::int64_t busy_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
  graph.busy_ns_[slot].fetch_add(busy_ns, std::memory_order_relaxed);
  metrics.tasks.add(1);

  // Pool workers never exit, so per-thread span aggregates must merge
  // before this task counts as complete — a snapshot taken after run()
  // then sees every span (the join-visibility contract a joined thread
  // fan-out provides for free).
  obs::flush_thread_spans();

  for (const std::uint32_t d : task.dependents) {
    if (graph.tasks_[d].pending.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      push_local(slot, Item{&graph, d});
    }
  }
  if (graph.remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    graph.done_.store(true, std::memory_order_release);
    notify_all_workers();
  }
}

void WorkerPool::worker_loop(unsigned slot) {
  g_worker_tls = WorkerTls{this, slot};
  Item item{};
  while (true) {
    if (try_pop(slot, item)) {
      execute(item, slot);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

void WorkerPool::run(TaskGraph& graph) {
  const auto start = Clock::now();
  JobMetrics& metrics = JobMetrics::get();
  metrics.graphs.add(1);
  graph.prepare(num_workers_);
  if (graph.size() == 0) {
    graph.wall_ms_ = 0.0;
    return;
  }

  // Seed the initial ready set round-robin by submission index: pushed
  // to the *back*, so each owner drains its seeds in index order while
  // thieves take from the opposite end.
  std::size_t seeded = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    if (graph.tasks_[i].pending.load(std::memory_order_relaxed) != 0) {
      continue;
    }
    WorkerDeque& dq = *deques_[i % num_workers_];
    const std::lock_guard<std::mutex> lock(dq.mutex);
    dq.items.push_back(Item{&graph, static_cast<std::uint32_t>(i)});
    ++seeded;
  }
  queued_.fetch_add(seeded, std::memory_order_release);
  metrics.queue_depth.add(static_cast<double>(seeded));
  notify_all_workers();

  // Participate: the caller is worker slot 0 (or keeps its own slot
  // when it already is a worker of this pool — the nested case). While
  // its graph is pending it executes whatever work is queued, which
  // may belong to other graphs on this pool; that is what makes nested
  // run() calls deadlock-free.
  const unsigned slot =
      g_worker_tls.pool == this ? g_worker_tls.slot : 0;
  Item item{};
  while (!graph.done_.load(std::memory_order_acquire)) {
    if (try_pop(slot, item)) {
      execute(item, slot);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [&] {
      return graph.done_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }

  graph.wall_ms_ =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  graph.finish();
}

void run_graph(TaskGraph& graph, unsigned max_threads) {
  unsigned requested =
      max_threads != 0 ? max_threads : default_max_threads();
  if (requested == 0) requested = 1;
  WorkerPool& pool = WorkerPool::shared();
  if (requested >= pool.num_workers()) {
    pool.run(graph);
    return;
  }
  // The explicit cap binds below the shared pool: honor it with a
  // temporary pool (graphs smaller than the cap need fewer slots).
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      requested, std::max<std::size_t>(graph.size(), 1)));
  WorkerPool local(workers);
  local.run(graph);
}

}  // namespace netmaster::jobs
