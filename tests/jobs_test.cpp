// Tests for the work-stealing job system: determinism across worker
// counts and steal orders, failure semantics, and the scheduler's
// no-starvation / steal behavior under adversarial skew.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "jobs/job_system.hpp"
#include "obs/metrics.hpp"

namespace netmaster::jobs {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(TaskGraph, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  TaskGraph graph;
  std::vector<std::atomic<int>> hits(128);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    graph.add([&hits, i] { ++hits[i]; });
  }
  pool.run(graph);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGraph, EmptyGraphCompletes) {
  WorkerPool pool(2);
  TaskGraph graph;
  pool.run(graph);
  EXPECT_TRUE(graph.ran());
}

TEST(TaskGraph, RunsOnlyOnce) {
  WorkerPool pool(1);
  TaskGraph graph;
  graph.add([] {});
  pool.run(graph);
  EXPECT_THROW(pool.run(graph), Error);
}

/// Builds and runs the same fleet-shaped graph — one task per user
/// running its prepare -> mine -> account steps, each doing real
/// floating-point work into a pre-allocated slot — and returns the
/// result vector.
std::vector<double> run_user_workload(unsigned workers) {
  constexpr std::size_t kUsers = 24;
  std::vector<double> out(kUsers);
  WorkerPool pool(workers);
  TaskGraph graph;
  for (std::size_t u = 0; u < kUsers; ++u) {
    graph.add([&out, u] {
      double prep = 1.0;
      for (int k = 1; k <= 200; ++k) {
        prep += std::sin(static_cast<double>(u * k)) / k;
      }
      const double mined = prep * prep + u;
      out[u] = std::sqrt(mined) * 0.5;
    });
  }
  pool.run(graph);
  return out;
}

TEST(TaskGraph, BitIdenticalAcrossWorkerCountsAndRepeats) {
  // The determinism contract: per-task result slots make the output
  // independent of worker count, steal order, and repetition.
  const std::vector<double> one = run_user_workload(1);
  const std::vector<double> two = run_user_workload(2);
  const std::vector<double> eight = run_user_workload(8);
  const std::vector<double> eight_again = run_user_workload(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(eight, eight_again);
}

TEST(TaskGraph, FailureRunsEveryOtherTaskAndRethrows) {
  for (const unsigned workers : {1u, 4u}) {
    WorkerPool pool(workers);
    TaskGraph graph;
    std::vector<std::atomic<int>> hits(16);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      graph.add([&hits, i] {
        ++hits[i];
        if (i == 3) throw std::runtime_error("prep failed");
      });
    }
    const std::uint64_t tasks_before = counter_value("jobs.tasks");
    try {
      pool.run(graph);
      FAIL() << "expected runtime_error (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "prep failed");
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "workers=" << workers;
    EXPECT_EQ(counter_value("jobs.tasks") - tasks_before, hits.size());
  }
}

TEST(TaskGraph, LowestSubmissionIndexErrorWins) {
  // Several failing tasks: the rethrown failure is the one with the
  // lowest submission index, deterministic in the graph regardless of
  // which worker reaches which failure first.
  for (const unsigned workers : {2u, 4u, 8u}) {
    WorkerPool pool(workers);
    TaskGraph graph;
    for (std::size_t i = 0; i < 64; ++i) {
      graph.add([i] {
        if (i % 17 == 5) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
    }
    try {
      pool.run(graph);
      FAIL() << "expected runtime_error (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5") << "workers=" << workers;
    }
  }
}

TEST(WorkerPool, IdleWorkerStealsFromBlockedOwnersDeque) {
  // Pool of 2: seeds go round-robin, so deque 0 holds {t0, t2} and
  // deque 1 holds {t1}. The caller (slot 0) picks t0 off the front and
  // blocks in it until t2 has run — but t2 sits *behind* the blocked
  // caller, so the only way it can run is worker 1 stealing it from the
  // back of deque 0. Completion therefore proves a steal; the steal
  // counter must agree.
  const std::uint64_t steals_before = counter_value("jobs.steals");
  std::atomic<bool> unblocked{false};
  std::atomic<bool> timed_out{false};
  WorkerPool pool(2);
  TaskGraph graph;
  graph.add([&] {  // t0: seeded to deque 0, runs on the caller
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!unblocked.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  graph.add([] {});  // t1: seeded to deque 1, keeps worker 1 honest
  graph.add([&] {    // t2: seeded to deque 0, behind the blocked t0
    unblocked.store(true, std::memory_order_release);
  });
  pool.run(graph);
  EXPECT_FALSE(timed_out.load()) << "worker 1 never stole the unblocker";
  EXPECT_GE(counter_value("jobs.steals") - steals_before, 1u);
}

TEST(WorkerPool, AdversarialSkewDoesNotStarveAndCountsTasks) {
  // One task runs ~100x longer than the rest. Every other task must
  // still complete (no worker starves behind the heavy one), the task
  // counter must see all of them, and the result must be bit-identical
  // to the single-worker run.
  constexpr std::size_t kTasks = 96;
  const auto run = [](unsigned workers) {
    std::vector<double> out(kTasks);
    WorkerPool pool(workers);
    TaskGraph graph;
    for (std::size_t i = 0; i < kTasks; ++i) {
      graph.add([&out, i] {
        const int iters = i == 0 ? 200000 : 2000;
        double acc = 0.0;
        for (int k = 1; k <= iters; ++k) {
          acc += 1.0 / (static_cast<double>(i) + k);
        }
        out[i] = acc;
      });
    }
    pool.run(graph);
    return out;
  };
  const std::uint64_t tasks_before = counter_value("jobs.tasks");
  const std::vector<double> skewed = run(8);
  EXPECT_EQ(counter_value("jobs.tasks") - tasks_before, kTasks);
  EXPECT_EQ(skewed, run(1));
}

TEST(WorkerPool, NestedGraphInsideTaskCompletes) {
  // A task that itself runs a graph must not deadlock: the waiting
  // caller executes queued work instead of parking.
  WorkerPool pool(4);
  TaskGraph graph;
  std::vector<std::atomic<int>> inner(64);
  std::atomic<int> outer{0};
  for (int t = 0; t < 4; ++t) {
    graph.add([&] {
      TaskGraph nested;
      for (std::size_t i = 0; i < inner.size(); ++i) {
        nested.add([&inner, i] { ++inner[i]; });
      }
      run_graph(nested, 2);
      ++outer;
    });
  }
  pool.run(graph);
  EXPECT_EQ(outer.load(), 4);
  for (const auto& h : inner) EXPECT_EQ(h.load(), 4);
}

TEST(RunGraph, HonorsThreadCapAndSharedPool) {
  // run_graph must work both below the shared pool's width (temporary
  // pool) and at/above it (shared pool), with identical results.
  const auto run = [](unsigned cap) {
    std::vector<double> out(32);
    TaskGraph graph;
    for (std::size_t i = 0; i < out.size(); ++i) {
      graph.add([&out, i] { out[i] = static_cast<double>(i) * 1.5; });
    }
    run_graph(graph, cap);
    return out;
  };
  const std::vector<double> capped = run(2);
  const std::vector<double> wide = run(64);
  EXPECT_EQ(capped, wide);
}

}  // namespace
}  // namespace netmaster::jobs
