// 0/1 knapsack solvers.
//
// The paper reduces its scheduling problem to single-knapsack
// subproblems solved with the Ibarra–Kim FPTAS ("SinKnap", a (1−ε)
// approximation via profit scaling + dynamic programming). We provide:
//   - `knapsack_fptas`   — the (1−ε)-approximate profit-scaling DP,
//   - `knapsack_greedy`  — ratio greedy (used by Algorithm 1's
//                          GreedyAdd step),
//   - `knapsack_exact`   — exact weight-indexed DP for small capacities
//                          (ground truth in tests and quality benches),
//   - `fractional_upper_bound` — LP relaxation bound for instrumentation.
//
// Items carry double profits and int64 weights (bytes).
//
// Each solver also has a workspace-parameterized overload (declared in
// sched/solver.hpp) that reuses caller-owned scratch; the free
// functions below delegate to those with the calling thread's
// `SchedWorkspace`, so results are identical either way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace netmaster::sched {

/// One knapsack item. `id` is an opaque caller tag carried through.
struct KnapItem {
  int id = 0;
  double profit = 0.0;
  std::int64_t weight = 0;
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
                          std::int64_t capacity);

/// Classic ratio greedy: sort by profit/weight nonincreasing, take what
/// fits. No approximation guarantee alone, but used as Algorithm 1's
/// final augmentation where any addition only helps.
KnapResult knapsack_greedy(std::span<const KnapItem> items,
                           std::int64_t capacity);

/// (1−ε)-approximate solver via profit scaling + profit-indexed DP
/// (Ibarra & Kim, JACM 1975 lineage). eps in (0, 1); smaller eps means
/// better quality and more work: O(n^2 * ceil(n/eps)) time in the worst
/// case. Items with non-positive profit or weight exceeding capacity
/// are never chosen; zero-weight positive-profit items are always
/// chosen. When every remaining item fits at once the DP is skipped and
/// the result is the one the DP would return, bit for bit (counted in
/// `sched.knapsack.slack`).
KnapResult knapsack_fptas(std::span<const KnapItem> items,
                          std::int64_t capacity, double eps);

/// Upper bound from the fractional (LP) relaxation; >= OPT always.
double fractional_upper_bound(std::span<const KnapItem> items,
                              std::int64_t capacity);

}  // namespace netmaster::sched
