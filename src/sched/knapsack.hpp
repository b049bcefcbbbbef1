// 0/1 knapsack solvers.
//
// The paper reduces its scheduling problem to single-knapsack
// subproblems solved with the Ibarra–Kim FPTAS ("SinKnap", a (1−ε)
// approximation via profit scaling + dynamic programming). We provide:
//   - `knapsack_fptas`   — the (1−ε)-approximate profit-scaling DP,
//   - `knapsack_greedy`  — ratio greedy (the `kGreedy` backend, and the
//                          shape of Algorithm 1's GreedyAdd step),
//   - `knapsack_exact`   — exact weight-indexed DP for small capacities
//                          (ground truth in tests and quality benches),
//   - `fractional_upper_bound` — LP relaxation bound for instrumentation.
//
// Items carry double profits and int64 weights (bytes).
//
// Every kernel draws its scratch from a `SchedWorkspace`
// (sched/solver.hpp), by default the calling thread's; hot paths pass
// an explicit one. `dp_cells`, when non-null, accumulates the DP cells
// touched. Results do not depend on which workspace is used.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace netmaster::sched {

class SchedWorkspace;  // sched/solver.hpp

/// The calling thread's workspace (function-local thread_local): one
/// per thread, created on first use, destroyed at thread exit. Each
/// job-system worker thread gets its own, reused across every task that
/// worker runs within (and across) graph runs.
SchedWorkspace& thread_workspace();

/// One knapsack item. `id` is an opaque caller tag carried through.
struct KnapItem {
  int id = 0;
  double profit = 0.0;
  std::int64_t weight = 0;
};

/// Profit/weight order, nonincreasing, compared without division;
/// zero-weight items come first (infinite ratio), by profit. A closure
/// object rather than a function, so std::sort inlines it.
inline constexpr auto ratio_before = [](const KnapItem& x,
                                        const KnapItem& y) {
  if (x.weight == 0 || y.weight == 0) {
    if (x.weight == 0 && y.weight == 0) return x.profit > y.profit;
    return x.weight == 0;
  }
  return x.profit * static_cast<double>(y.weight) >
         y.profit * static_cast<double>(x.weight);
};

/// Solver output: the chosen item ids plus totals.
struct KnapResult {
  std::vector<int> chosen;  ///< ids of selected items
  double profit = 0.0;
  std::int64_t weight = 0;
};

/// Exact DP over weights, O(n * capacity). Intended for capacities up to
/// a few million (tests/benches); throws for absurd capacities.
KnapResult knapsack_exact(std::span<const KnapItem> items,
                          std::int64_t capacity,
                          SchedWorkspace& ws = thread_workspace(),
                          std::uint64_t* dp_cells = nullptr);

/// Classic ratio greedy: sort by profit/weight nonincreasing, take what
/// fits. No approximation guarantee; touches no DP cells.
KnapResult knapsack_greedy(std::span<const KnapItem> items,
                           std::int64_t capacity,
                           SchedWorkspace& ws = thread_workspace());

/// (1−ε)-approximate solver via profit scaling + profit-indexed DP
/// (Ibarra & Kim, JACM 1975 lineage). eps in (0, 1); smaller eps means
/// better quality and more work: O(n^2 * ceil(n/eps)) time in the worst
/// case. Items with non-positive profit or weight exceeding capacity
/// are never chosen; zero-weight positive-profit items are always
/// chosen. When every remaining item fits at once the DP is skipped and
/// the result is the one the DP would return, bit for bit (counted in
/// `sched.knapsack.slack`).
KnapResult knapsack_fptas(std::span<const KnapItem> items,
                          std::int64_t capacity, double eps,
                          SchedWorkspace& ws = thread_workspace(),
                          std::uint64_t* dp_cells = nullptr);

/// Upper bound from the fractional (LP) relaxation; >= OPT always.
/// Input already in `ratio_before` order (Algorithm 1's binding
/// per-slot itemsets) is walked as given; anything else is sorted first.
double fractional_upper_bound(std::span<const KnapItem> items,
                              std::int64_t capacity);

}  // namespace netmaster::sched
