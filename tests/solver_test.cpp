// Tests for the pluggable scheduler-solver layer: a frozen copy of the
// pre-refactor (map-based, allocation-per-call) Algorithm 1 guards the
// default path bit for bit, a cross-backend equivalence suite checks
// the solver contracts on randomized instances, and workspace reuse is
// verified deterministic across a thousand solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sched/knapsack.hpp"
#include "sched/overlap.hpp"
#include "sched/solver.hpp"

namespace netmaster::sched {
namespace {

// ---------------------------------------------------------------------
// Frozen pre-refactor reference: the seed-era knapsack_fptas and
// solve_overlapped, verbatim (std::map id indexes, fresh DP tables and
// vector<vector<bool>> take matrices per call). The solver layer must
// reproduce this bit for bit under default options.
// ---------------------------------------------------------------------
namespace legacy {

KnapResult fptas(std::span<const KnapItem> items, std::int64_t capacity,
                 double eps) {
  KnapResult result;
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const KnapItem& item = items[i];
    if (item.profit <= 0.0 || item.weight > capacity) continue;
    if (item.weight == 0) {
      result.chosen.push_back(item.id);
      result.profit += item.profit;
    } else {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return result;

  double pmax = 0.0;
  for (std::size_t i : candidates) pmax = std::max(pmax, items[i].profit);
  const auto n = static_cast<double>(candidates.size());
  const double scale = eps * pmax / n;

  std::vector<std::int64_t> scaled(candidates.size());
  std::int64_t total_scaled = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    scaled[k] = static_cast<std::int64_t>(
        std::floor(items[candidates[k]].profit / scale));
    total_scaled += scaled[k];
  }

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> min_weight(
      static_cast<std::size_t>(total_scaled) + 1, kInf);
  min_weight[0] = 0;
  std::vector<std::vector<bool>> take(candidates.size());

  std::int64_t reach = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const KnapItem& item = items[candidates[k]];
    const std::int64_t sp = scaled[k];
    take[k].assign(static_cast<std::size_t>(total_scaled) + 1, false);
    if (sp == 0) continue;
    reach = std::min(reach + sp, total_scaled);
    for (std::int64_t s = reach; s >= sp; --s) {
      const std::int64_t base = min_weight[static_cast<std::size_t>(s - sp)];
      if (base == kInf) continue;
      const std::int64_t w = base + item.weight;
      if (w < min_weight[static_cast<std::size_t>(s)]) {
        min_weight[static_cast<std::size_t>(s)] = w;
        take[k][static_cast<std::size_t>(s)] = true;
      }
    }
  }

  std::int64_t best_s = 0;
  for (std::int64_t s = total_scaled; s > 0; --s) {
    if (min_weight[static_cast<std::size_t>(s)] <= capacity) {
      best_s = s;
      break;
    }
  }

  std::int64_t s = best_s;
  for (std::size_t k = candidates.size(); k-- > 0;) {
    if (s > 0 && take[k][static_cast<std::size_t>(s)]) {
      const KnapItem& item = items[candidates[k]];
      result.chosen.push_back(item.id);
      result.profit += item.profit;
      result.weight += item.weight;
      s -= scaled[k];
    }
  }
  return result;
}

OverlapSolution solve_overlapped(std::span<const OverlapSlot> slots,
                                 std::span<const OverlapItem> items,
                                 double eps) {
  std::map<int, const OverlapItem*> by_id;
  for (const OverlapItem& item : items) by_id[item.id] = &item;

  std::vector<std::vector<KnapItem>> slot_items(slots.size());
  for (const OverlapItem& item : items) {
    for (int s : {item.prev_slot, item.next_slot}) {
      if (s >= 0) {
        slot_items[static_cast<std::size_t>(s)].push_back(
            {item.id, item.profit, item.weight});
      }
    }
  }

  std::vector<std::vector<int>> chosen_per_slot(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& list = slot_items[s];
    std::sort(list.begin(), list.end(),
              [](const KnapItem& a, const KnapItem& b) {
                if (a.weight == 0 || b.weight == 0) {
                  if (a.weight == 0 && b.weight == 0)
                    return a.profit > b.profit;
                  return a.weight == 0;
                }
                return a.profit * static_cast<double>(b.weight) >
                       b.profit * static_cast<double>(a.weight);
              });
    chosen_per_slot[s] = fptas(list, slots[s].capacity, eps).chosen;
  }

  std::map<int, std::vector<int>> slots_of_item;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (int id : chosen_per_slot[s]) {
      slots_of_item[id].push_back(static_cast<int>(s));
    }
  }

  OverlapSolution solution;
  solution.slot_used.assign(slots.size(), 0);
  std::map<int, bool> assigned;
  for (const auto& [id, cand] : slots_of_item) {
    const OverlapItem& item = *by_id.at(id);
    int slot = cand.front();
    if (cand.size() == 2) {
      const std::int64_t r0 =
          slots[static_cast<std::size_t>(cand[0])].capacity - item.weight;
      const std::int64_t r1 =
          slots[static_cast<std::size_t>(cand[1])].capacity - item.weight;
      slot = r0 <= r1 ? cand[0] : cand[1];
    }
    solution.assignments.push_back({id, slot});
    solution.slot_used[static_cast<std::size_t>(slot)] += item.weight;
    solution.total_profit += item.profit;
    assigned[id] = true;
  }

  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::int64_t residual = slots[s].capacity - solution.slot_used[s];
    for (const KnapItem& ki : slot_items[s]) {
      if (assigned.count(ki.id) || ki.profit <= 0.0) continue;
      if (ki.weight <= residual) {
        solution.assignments.push_back({ki.id, static_cast<int>(s)});
        solution.slot_used[s] += ki.weight;
        solution.total_profit += ki.profit;
        residual -= ki.weight;
        assigned[ki.id] = true;
      }
    }
  }
  return solution;
}

}  // namespace legacy

struct OverlapInstance {
  std::vector<OverlapSlot> slots;
  std::vector<OverlapItem> items;
};

/// Random instance with non-dense, shuffled item ids (the sorted flat
/// index must reproduce the ascending-id map iteration even when input
/// order and id values are arbitrary).
OverlapInstance random_instance(Rng& rng, int n_items, int n_slots,
                                std::int64_t max_capacity = 250) {
  OverlapInstance inst;
  for (int s = 0; s < n_slots; ++s) {
    inst.slots.push_back({s, rng.uniform_int(20, max_capacity)});
  }
  for (int i = 0; i < n_items; ++i) {
    const int prev = n_slots >= 2
                         ? static_cast<int>(rng.uniform_int(0, n_slots - 2))
                         : 0;
    const int id = i * 7 + static_cast<int>(rng.uniform_int(0, 3));
    inst.items.push_back({id, rng.uniform_int(1, 120),
                          rng.uniform(-5.0, 50.0), prev,
                          n_slots >= 2 ? prev + 1 : -1});
  }
  // Ensure ids stayed unique despite the jitter (stride 7 > jitter 3).
  for (std::size_t i = 1; i < inst.items.size(); ++i) {
    EXPECT_GT(inst.items[i].id, inst.items[i - 1].id);
  }
  // Shuffle input order so it differs from id order.
  for (std::size_t i = inst.items.size(); i > 1; --i) {
    std::swap(inst.items[i - 1],
              inst.items[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return inst;
}

void expect_same_solution(const OverlapSolution& a,
                          const OverlapSolution& b) {
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.slot_used, b.slot_used);
  EXPECT_EQ(a.total_profit, b.total_profit);  // bit-for-bit, no tolerance
}

TEST(FrozenLegacy, DefaultPathIsBitForBit) {
  Rng rng(1234);
  for (int run = 0; run < 100; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 8));
    const int n_items = static_cast<int>(rng.uniform_int(1, 40));
    const OverlapInstance inst = random_instance(rng, n_items, n_slots);
    const OverlapSolution want =
        legacy::solve_overlapped(inst.slots, inst.items, 0.1);

    // The default arguments (thread workspace) and an explicit
    // workspace + stats must both reproduce the frozen reference.
    expect_same_solution(want, solve_overlapped(inst.slots, inst.items));
    SchedWorkspace ws;
    SolverOptions options;  // kFptas, eps = 0.1: the default config
    SolveStats stats;
    expect_same_solution(
        want,
        solve_overlapped(inst.slots, inst.items, options, ws, &stats));
    EXPECT_EQ(stats.slot_solves_fptas, inst.slots.size());
    EXPECT_EQ(stats.slot_solves_exact, 0u);
    EXPECT_EQ(stats.slot_solves_greedy, 0u);
  }
}

// ---------------------------------------------------------------------
// Capacity-slack fast path: when every FPTAS candidate fits at once the
// kernel skips the DP. The frozen legacy kernel, which always runs the
// DP, is the oracle: chosen order, profit and weight must match exactly.
// ---------------------------------------------------------------------

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Runs knapsack_fptas against the legacy oracle and reports whether the
/// slack path served it (and that it then touched no DP cell).
bool expect_fptas_matches_legacy(std::span<const KnapItem> items,
                                 std::int64_t capacity, double eps,
                                 SchedWorkspace& ws) {
  const KnapResult want = legacy::fptas(items, capacity, eps);
  const std::uint64_t slack_before = counter_value("sched.knapsack.slack");
  std::uint64_t cells = 0;
  const KnapResult got = knapsack_fptas(items, capacity, eps, ws, &cells);
  EXPECT_EQ(want.chosen, got.chosen);
  EXPECT_EQ(want.profit, got.profit);  // bit-for-bit, no tolerance
  EXPECT_EQ(want.weight, got.weight);
  const bool slack = counter_value("sched.knapsack.slack") != slack_before;
  if (slack) {
    EXPECT_EQ(cells, 0u);
  }
  return slack;
}

TEST(CapacitySlack, RandomFittingInstancesMatchLegacyDp) {
  Rng rng(4242);
  SchedWorkspace ws;
  int slack_solves = 0;
  for (const double eps : {0.01, 0.1, 0.5}) {
    for (int run = 0; run < 200; ++run) {
      std::vector<KnapItem> items;
      const int n = static_cast<int>(rng.uniform_int(1, 40));
      std::int64_t total = 0;
      for (int i = 0; i < n; ++i) {
        // Profits span four decades so some fall below the scale.
        const double profit = rng.uniform(0.0, 1.0) < 0.2
                                  ? rng.uniform(0.001, 0.05)
                                  : rng.uniform(-5.0, 60.0);
        const std::int64_t weight = rng.uniform_int(1, 80);
        items.push_back({i, profit, weight});
        total += weight;
      }
      const std::int64_t cap = total + rng.uniform_int(0, 50);
      if (expect_fptas_matches_legacy(items, cap, eps, ws)) ++slack_solves;
    }
  }
  // Every instance with a profitable item takes the fast path.
  EXPECT_GT(slack_solves, 550);
}

TEST(CapacitySlack, BoundaryTakesFastPathOnlyWhenEverythingFits) {
  SchedWorkspace ws;
  const std::vector<KnapItem> items = {
      {0, 30.0, 17}, {1, 12.5, 9}, {2, 40.0, 23}, {3, 7.25, 5}};
  const std::int64_t total = 17 + 9 + 23 + 5;
  EXPECT_TRUE(expect_fptas_matches_legacy(items, total, 0.1, ws));
  EXPECT_FALSE(expect_fptas_matches_legacy(items, total - 1, 0.1, ws));

  // Σw == cap + 1 runs the DP and touches cells.
  std::uint64_t cells = 0;
  (void)knapsack_fptas(items, total - 1, 0.1, ws, &cells);
  EXPECT_GT(cells, 0u);
}

TEST(CapacitySlack, ZeroScaledItemsAreExcluded) {
  // scale = eps * pmax / n = 0.1 * 100 / 3: profits 0.5 and 0.2 scale to
  // 0, so the DP never takes them and neither may the fast path.
  SchedWorkspace ws;
  const std::vector<KnapItem> items = {
      {7, 0.5, 3}, {8, 100.0, 5}, {9, 0.2, 4}};
  EXPECT_TRUE(expect_fptas_matches_legacy(items, 1000, 0.1, ws));
  const KnapResult got = knapsack_fptas(items, 1000, 0.1, ws);
  EXPECT_EQ(got.chosen, std::vector<int>{8});
  EXPECT_EQ(got.weight, 5);
}

TEST(CapacitySlack, ZeroWeightAndOverCapacityItems) {
  SchedWorkspace ws;
  // Zero-weight profitable items lead, zero-weight unprofitable ones and
  // the item heavier than the slot are dropped; the rest fit at once.
  const std::vector<KnapItem> items = {
      {0, 5.0, 0},   {1, 20.0, 10}, {2, -3.0, 0}, {3, 99.0, 500},
      {4, 15.0, 12}, {5, 2.0, 0},   {6, 8.0, 30}};
  EXPECT_TRUE(expect_fptas_matches_legacy(items, 100, 0.1, ws));
  const KnapResult got = knapsack_fptas(items, 100, 0.1, ws);
  EXPECT_EQ(got.chosen, (std::vector<int>{0, 5, 6, 4, 1}));
  EXPECT_EQ(got.weight, 52);

  // Only zero-weight items: no candidates, no solve at all.
  const std::vector<KnapItem> free_items = {{0, 5.0, 0}, {1, 2.0, 0}};
  EXPECT_FALSE(expect_fptas_matches_legacy(free_items, 0, 0.1, ws));
}

TEST(CapacitySlack, CountsSolvesAndTouchesNoCells) {
  SchedWorkspace ws;
  const std::vector<KnapItem> items = {{0, 10.0, 4}, {1, 30.0, 6}};
  const std::uint64_t solves = counter_value("sched.knapsack.solves");
  const std::uint64_t slack = counter_value("sched.knapsack.slack");
  const std::uint64_t iterations = counter_value("sched.knapsack.iterations");
  std::uint64_t cells = 0;
  const KnapResult got = knapsack_fptas(items, 10, 0.1, ws, &cells);
  EXPECT_EQ(got.chosen, (std::vector<int>{1, 0}));
  EXPECT_EQ(cells, 0u);
  EXPECT_EQ(counter_value("sched.knapsack.solves"), solves + 1);
  EXPECT_EQ(counter_value("sched.knapsack.slack"), slack + 1);
  EXPECT_EQ(counter_value("sched.knapsack.iterations"), iterations);
}

TEST(CapacitySlack, FittingInstanceOverTheChoiceTableGuardStillThrows) {
  // 20 equal items at eps = 1e-5 scale to 2e6 each: total_scaled = 4e7
  // passes the profit-table guard, but 20 * (4e7 + 1) cells exceed the
  // choice-table guard, even though everything fits.
  std::vector<KnapItem> items;
  for (int i = 0; i < 20; ++i) items.push_back({i, 1.0, 1});
  SchedWorkspace ws;
  const std::uint64_t slack = counter_value("sched.knapsack.slack");
  EXPECT_THROW(knapsack_fptas(items, 1000, 1e-5, ws), Error);
  EXPECT_EQ(counter_value("sched.knapsack.slack"), slack);
}

TEST(CapacitySlack, ByteScaleOverlappedSweepMatchesLegacy) {
  // Byte-scale slot capacities (as in real traces), where nearly every
  // slot has slack; the default random_instance capacities rarely do.
  Rng rng(8080);
  SchedWorkspace ws;
  SolverOptions options;
  const std::uint64_t slack_before = counter_value("sched.knapsack.slack");
  for (int run = 0; run < 100; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 8));
    const int n_items = static_cast<int>(rng.uniform_int(1, 40));
    const OverlapInstance inst =
        random_instance(rng, n_items, n_slots, 50'000'000);
    SolveStats stats;
    expect_same_solution(
        legacy::solve_overlapped(inst.slots, inst.items, 0.1),
        solve_overlapped(inst.slots, inst.items, options, ws, &stats));
    std::int64_t total_weight = 0;
    for (const OverlapItem& item : inst.items) total_weight += item.weight;
    const bool all_slack = std::all_of(
        inst.slots.begin(), inst.slots.end(),
        [&](const OverlapSlot& s) { return s.capacity >= total_weight; });
    if (all_slack) {
      EXPECT_EQ(stats.dp_cells, 0u);
    }
  }
  EXPECT_GT(counter_value("sched.knapsack.slack"), slack_before + 100);
}

TEST(SolverChoiceNames, RoundTrip) {
  for (const SolverChoice c :
       {SolverChoice::kFptas, SolverChoice::kExact, SolverChoice::kGreedy,
        SolverChoice::kAuto}) {
    EXPECT_EQ(parse_solver_choice(to_string(c)), c);
  }
  EXPECT_THROW(parse_solver_choice("simplex"), Error);
  EXPECT_THROW(parse_solver_choice(""), Error);
}

TEST(SolverOptionsValidation, RejectsOutOfRange) {
  SolverOptions options;
  EXPECT_NO_THROW(options.validate());
  options.eps = 0.0;
  EXPECT_THROW(options.validate(), Error);
  options.eps = 1.0;
  EXPECT_THROW(options.validate(), Error);
}

/// The kernel `choice` ran on a one-slot instance of `n` unit items in
/// a slot of `capacity` bytes (read back from the solve stats).
SolverChoice kernel_run(SolverChoice choice, int n, std::int64_t capacity) {
  const std::vector<OverlapSlot> slots = {{0, capacity}};
  std::vector<OverlapItem> items;
  for (int i = 0; i < n; ++i) items.push_back({i, 1, 1.0, 0, -1});
  SolverOptions options;
  options.choice = choice;
  SchedWorkspace ws;
  SolveStats stats;
  (void)solve_overlapped(slots, items, options, ws, &stats);
  EXPECT_EQ(stats.slot_solves_fptas + stats.slot_solves_exact +
                stats.slot_solves_greedy,
            1u);
  if (stats.slot_solves_exact == 1) return SolverChoice::kExact;
  if (stats.slot_solves_greedy == 1) return SolverChoice::kGreedy;
  return SolverChoice::kFptas;
}

TEST(AutoResolve, PicksExactOnlyWhenCheapAndSmall) {
  constexpr SolverChoice kAuto = SolverChoice::kAuto;
  // Small capacity, enough items: the weight-indexed table beats the
  // profit-scaling estimate n^2 * ceil(n/eps).
  EXPECT_EQ(kernel_run(kAuto, 20, 100), SolverChoice::kExact);
  // Byte-scale capacity (a real slot): table over the ceiling -> FPTAS.
  EXPECT_EQ(kernel_run(kAuto, 20, 180'000'000), SolverChoice::kFptas);
  // The constant 1e6-cell ceiling alone: at n = 50 the FPTAS estimate
  // is 1.25e6 cells, so the cost comparison would take either table.
  EXPECT_EQ(kernel_run(kAuto, 50, 19'999), SolverChoice::kExact);
  EXPECT_EQ(kernel_run(kAuto, 50, 20'000), SolverChoice::kFptas);
  // Few items, big capacity, under the ceiling (2 * 100001 cells): the
  // exact table dwarfs the FPTAS estimate, so the cost comparison alone
  // picks the FPTAS.
  EXPECT_EQ(kernel_run(kAuto, 2, 100'000), SolverChoice::kFptas);
  // Concrete choices run their own kernel.
  for (const SolverChoice c : {SolverChoice::kFptas, SolverChoice::kExact,
                               SolverChoice::kGreedy}) {
    EXPECT_EQ(kernel_run(c, 20, 100), c);
  }
}

TEST(AutoResolve, SolveMatchesDelegateBitForBit) {
  Rng rng(77);
  SchedWorkspace ws;
  bool saw_exact = false, saw_fptas = false;
  for (int run = 0; run < 200; ++run) {
    // One slot, so the auto choice is one kernel call.
    OverlapInstance inst;
    const int n = static_cast<int>(rng.uniform_int(1, 30));
    for (int i = 0; i < n; ++i) {
      const double profit = rng.uniform(0.5, 60.0);
      inst.items.push_back({i, rng.uniform_int(1, 80), profit, 0, -1});
    }
    // Mix capacities around the auto threshold so both delegates fire.
    inst.slots.push_back({0, rng.uniform_int(10, 200'000)});
    SolverOptions options;
    options.choice = SolverChoice::kAuto;
    SolveStats auto_stats, delegate_stats;
    const OverlapSolution via_auto =
        solve_overlapped(inst.slots, inst.items, options, ws, &auto_stats);
    const bool exact = auto_stats.slot_solves_exact == 1;
    (exact ? saw_exact : saw_fptas) = true;
    options.choice = exact ? SolverChoice::kExact : SolverChoice::kFptas;
    expect_same_solution(via_auto,
                         solve_overlapped(inst.slots, inst.items, options,
                                          ws, &delegate_stats));
    EXPECT_EQ(auto_stats.dp_cells, delegate_stats.dp_cells);
  }
  EXPECT_TRUE(saw_exact);
  EXPECT_TRUE(saw_fptas);
}

TEST(CrossBackend, ExactDominatesFptasWithinEps) {
  Rng rng(555);
  SchedWorkspace ws;
  for (const double eps : {0.05, 0.1, 0.5}) {
    for (int run = 0; run < 60; ++run) {
      std::vector<KnapItem> items;
      const int n = static_cast<int>(rng.uniform_int(1, 40));
      for (int i = 0; i < n; ++i) {
        items.push_back(
            {i, rng.uniform(0.5, 100.0), rng.uniform_int(1, 60)});
      }
      const std::int64_t cap = rng.uniform_int(30, 600);
      const double exact = knapsack_exact(items, cap, ws).profit;
      const double fptas = knapsack_fptas(items, cap, eps, ws).profit;
      const double greedy = knapsack_greedy(items, cap, ws).profit;
      EXPECT_LE(fptas, exact + 1e-9);
      EXPECT_GE(fptas, (1.0 - eps) * exact - 1e-9)
          << "n=" << n << " cap=" << cap << " eps=" << eps;
      EXPECT_LE(greedy, exact + 1e-9);
    }
  }
}

TEST(CrossBackend, EveryBackendFeasibleWithSaneStats) {
  Rng rng(31337);
  SchedWorkspace ws;
  for (const SolverChoice backend :
       {SolverChoice::kFptas, SolverChoice::kExact, SolverChoice::kGreedy,
        SolverChoice::kAuto}) {
    SolverOptions options;
    options.choice = backend;
    for (int run = 0; run < 40; ++run) {
      const int n_slots = static_cast<int>(rng.uniform_int(2, 6));
      const int n_items = static_cast<int>(rng.uniform_int(1, 25));
      // Small capacities keep the exact backend inside its DP limits.
      const OverlapInstance inst =
          random_instance(rng, n_items, n_slots, 200);
      SolveStats stats;
      // solve_overlapped runs check_feasible internally: not throwing
      // is the per-backend feasibility invariant.
      const OverlapSolution sol = solve_overlapped(
          inst.slots, inst.items, options, ws, &stats);

      EXPECT_EQ(stats.requested, backend);
      EXPECT_EQ(stats.items, inst.items.size());
      EXPECT_EQ(stats.slots, inst.slots.size());
      EXPECT_EQ(stats.slot_solves_fptas + stats.slot_solves_exact +
                    stats.slot_solves_greedy,
                inst.slots.size());
      if (backend != SolverChoice::kAuto) {
        const std::size_t taken =
            backend == SolverChoice::kFptas ? stats.slot_solves_fptas
            : backend == SolverChoice::kExact ? stats.slot_solves_exact
                                              : stats.slot_solves_greedy;
        EXPECT_EQ(taken, inst.slots.size());
      }
      EXPECT_GE(stats.upper_bound, stats.profit - 1e-9);
      EXPECT_GE(stats.gap, 0.0);
      EXPECT_LE(stats.gap, 1.0);
      EXPECT_EQ(stats.profit, sol.total_profit);
      if (backend == SolverChoice::kGreedy) {
        EXPECT_EQ(stats.dp_cells, 0u);
      }
      // Each assignment targets one of the item's candidate slots and
      // every item appears at most once (re-checked here on top of the
      // internal check_feasible).
      std::map<int, int> seen;
      for (const OverlapAssignment& a : sol.assignments) {
        EXPECT_EQ(++seen[a.item_id], 1);
      }
    }
  }
}

TEST(CrossBackend, ExactBackendNeverWorseThanGreedyBackend) {
  // Filtering/GreedyAdd are shared; the per-slot DP is what the backend
  // changes. The exact per-slot packing dominates the greedy per-slot
  // packing before filtering, and on single-slot instances (no overlap,
  // filtering is the identity) that dominance survives to the total.
  Rng rng(99);
  SchedWorkspace ws;
  for (int run = 0; run < 50; ++run) {
    OverlapInstance inst;
    inst.slots.push_back({0, rng.uniform_int(50, 300)});
    const int n_items = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < n_items; ++i) {
      inst.items.push_back(
          {i, rng.uniform_int(1, 100), rng.uniform(0.5, 40.0), 0, -1});
    }
    SolverOptions exact_options, greedy_options;
    exact_options.choice = SolverChoice::kExact;
    greedy_options.choice = SolverChoice::kGreedy;
    const double exact_profit =
        solve_overlapped(inst.slots, inst.items, exact_options, ws)
            .total_profit;
    const double greedy_profit =
        solve_overlapped(inst.slots, inst.items, greedy_options, ws)
            .total_profit;
    EXPECT_GE(exact_profit, greedy_profit - 1e-9);
  }
}

TEST(Workspace, ReuseIsDeterministicAcross1kSolves) {
  // One workspace carried through 1000 solves of varied instances must
  // produce exactly what a fresh workspace produces per solve — reused
  // scratch may never leak state between calls.
  SchedWorkspace shared;
  SolverOptions options;
  Rng rng(2024);
  for (int run = 0; run < 1000; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 6));
    const int n_items = static_cast<int>(rng.uniform_int(1, 25));
    const OverlapInstance inst = random_instance(rng, n_items, n_slots);
    // Rotate backends so the shared workspace also crosses kernels.
    options.choice = static_cast<SolverChoice>(run % 4);
    const OverlapSolution reused =
        solve_overlapped(inst.slots, inst.items, options, shared);
    SchedWorkspace fresh;
    const OverlapSolution pristine =
        solve_overlapped(inst.slots, inst.items, options, fresh);
    expect_same_solution(reused, pristine);
  }
  EXPECT_EQ(shared.solves(), 1000u);
}

TEST(Workspace, ThreadWorkspaceIsStableAndCounts) {
  SchedWorkspace& ws = thread_workspace();
  EXPECT_EQ(&ws, &thread_workspace());
  const std::uint64_t before = ws.solves();
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  const std::vector<OverlapItem> items = {{0, 5, 2.0, 0, 1}};
  (void)solve_overlapped(slots, items);  // the default rides it
  EXPECT_EQ(ws.solves(), before + 1);
}

TEST(SolveStats, ReportsBackendMixUnderAuto) {
  // Two slots on opposite sides of the auto threshold: one tiny
  // capacity (exact) and one byte-scale capacity (FPTAS).
  const std::vector<OverlapSlot> slots = {{0, 100}, {1, 50'000'000}};
  std::vector<OverlapItem> items;
  for (int i = 0; i < 12; ++i) {
    items.push_back({i, 10 + i, 5.0 + i, 0, 1});
  }
  SolverOptions options;
  options.choice = SolverChoice::kAuto;
  SchedWorkspace ws;
  SolveStats stats;
  (void)solve_overlapped(slots, items, options, ws, &stats);
  EXPECT_EQ(stats.slot_solves_exact, 1u);
  EXPECT_EQ(stats.slot_solves_fptas, 1u);
  EXPECT_GT(stats.dp_cells, 0u);
  EXPECT_EQ(stats.duplicated_items, 24u);
}


// ---------------------------------------------------------------------
// Slack slots skip the ratio sort. The reference below is Algorithm 1
// with every slot's itemset ratio-sorted, as it ran before slack slots
// skipped the sort: the knapsack.hpp kernels, kAuto resolved per slot
// by the same cost rule, per-candidate profits, and std::map id walks.
// Every backend must match it bit for bit, and `slot_sorts` must count
// exactly the slots whose positive-profit copies do not fit together.
// ---------------------------------------------------------------------
namespace sort_always {

SolverChoice resolve(SolverChoice choice, std::size_t n,
                     std::int64_t capacity, double eps) {
  if (choice != SolverChoice::kAuto) return choice;
  if (n == 0) return SolverChoice::kFptas;
  const auto nd = static_cast<double>(n);
  const double exact_cells = nd * (static_cast<double>(capacity) + 1.0);
  const double fptas_cells = nd * nd * std::ceil(nd / eps);
  return exact_cells <= 1e6 && exact_cells <= fptas_cells
             ? SolverChoice::kExact
             : SolverChoice::kFptas;
}

OverlapSolution solve(std::span<const OverlapSlot> slots,
                      std::span<const OverlapItem> items,
                      const SolverOptions& options,
                      double* upper_bound = nullptr) {
  std::map<int, const OverlapItem*> by_id;
  for (const OverlapItem& item : items) by_id[item.id] = &item;

  std::vector<std::vector<KnapItem>> slot_items(slots.size());
  for (const OverlapItem& item : items) {
    for (int s : {item.prev_slot, item.next_slot}) {
      if (s >= 0) {
        slot_items[static_cast<std::size_t>(s)].push_back(
            {item.id, item.profit_in(s), item.weight});
      }
    }
  }

  SchedWorkspace ws;
  double bound = 0.0;
  std::map<int, std::vector<int>> slots_of_item;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& list = slot_items[s];
    const std::int64_t capacity = slots[s].capacity;
    std::sort(list.begin(), list.end(), ratio_before);
    bound += fractional_upper_bound(list, capacity);
    std::vector<int> chosen;
    switch (resolve(options.choice, list.size(), capacity, options.eps)) {
      case SolverChoice::kExact:
        chosen = knapsack_exact(list, capacity, ws).chosen;
        break;
      case SolverChoice::kGreedy:
        chosen = knapsack_greedy(list, capacity, ws).chosen;
        break;
      default:
        chosen = knapsack_fptas(list, capacity, options.eps, ws).chosen;
        break;
    }
    for (int id : chosen) slots_of_item[id].push_back(static_cast<int>(s));
  }

  OverlapSolution solution;
  solution.slot_used.assign(slots.size(), 0);
  std::map<int, bool> assigned;
  for (const auto& [id, cand] : slots_of_item) {
    const OverlapItem& item = *by_id.at(id);
    int slot = cand.front();
    if (cand.size() == 2) {
      const double p0 = item.profit_in(cand[0]);
      const double p1 = item.profit_in(cand[1]);
      if (p0 != p1) {
        slot = p0 > p1 ? cand[0] : cand[1];
      } else {
        const std::int64_t r0 =
            slots[static_cast<std::size_t>(cand[0])].capacity - item.weight;
        const std::int64_t r1 =
            slots[static_cast<std::size_t>(cand[1])].capacity - item.weight;
        slot = r0 <= r1 ? cand[0] : cand[1];
      }
    }
    solution.assignments.push_back({id, slot});
    solution.slot_used[static_cast<std::size_t>(slot)] += item.weight;
    solution.total_profit += item.profit_in(slot);
    assigned[id] = true;
  }

  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::int64_t residual = slots[s].capacity - solution.slot_used[s];
    for (const KnapItem& ki : slot_items[s]) {
      if (assigned.count(ki.id) || ki.profit <= 0.0) continue;
      if (ki.weight <= residual) {
        solution.assignments.push_back({ki.id, static_cast<int>(s)});
        solution.slot_used[s] += ki.weight;
        solution.total_profit += ki.profit;
        residual -= ki.weight;
        assigned[ki.id] = true;
      }
    }
  }
  if (upper_bound != nullptr) *upper_bound = bound;
  return solution;
}

}  // namespace sort_always

/// Slots whose positive-profit copies do not fit together.
std::size_t binding_slots(const OverlapInstance& inst) {
  std::vector<std::int64_t> weight(inst.slots.size(), 0);
  for (const OverlapItem& item : inst.items) {
    for (int s : {item.prev_slot, item.next_slot}) {
      if (s >= 0 && item.profit_in(s) > 0.0) {
        weight[static_cast<std::size_t>(s)] += item.weight;
      }
    }
  }
  std::size_t binding = 0;
  for (std::size_t s = 0; s < inst.slots.size(); ++s) {
    if (weight[s] > inst.slots[s].capacity) ++binding;
  }
  return binding;
}

constexpr SolverChoice kAllBackends[] = {
    SolverChoice::kFptas, SolverChoice::kExact, SolverChoice::kGreedy,
    SolverChoice::kAuto};

/// Solves `inst` under every backend and checks each against the
/// sort-always reference; returns the slot sorts of the last backend.
std::size_t expect_all_backends_match(const OverlapInstance& inst,
                                      SchedWorkspace& ws) {
  std::size_t sorts = 0;
  for (const SolverChoice backend : kAllBackends) {
    SolverOptions options;
    options.choice = backend;
    double want_bound = 0.0;
    const OverlapSolution want =
        sort_always::solve(inst.slots, inst.items, options, &want_bound);
    SolveStats stats;
    expect_same_solution(
        want, solve_overlapped(inst.slots, inst.items, options, ws, &stats));
    // Slack slots add their bound in input order: equal up to rounding.
    EXPECT_NEAR(stats.upper_bound, want_bound,
                1e-12 * std::max(1.0, want_bound));
    sorts = stats.slot_sorts;
  }
  return sorts;
}

/// A random instance mixing slack and binding slots. Items draw
/// zero-scaled profits (far below the slot's largest), zero weights and
/// per-candidate profits; ids are dense and ascending, or strided and
/// shuffled.
OverlapInstance mixed_instance(Rng& rng, bool dense_ids) {
  OverlapInstance inst;
  const int n_slots = static_cast<int>(rng.uniform_int(2, 7));
  for (int s = 0; s < n_slots; ++s) {
    const bool roomy = rng.bernoulli(0.5);
    inst.slots.push_back(
        {s, roomy ? rng.uniform_int(3000, 6000) : rng.uniform_int(20, 200)});
  }
  const int n_items = static_cast<int>(rng.uniform_int(1, 30));
  for (int i = 0; i < n_items; ++i) {
    const int prev = static_cast<int>(rng.uniform_int(-1, n_slots - 2));
    OverlapItem item;
    item.id = dense_ids ? i : i * 5 + static_cast<int>(rng.uniform_int(0, 3));
    item.weight = rng.bernoulli(0.1) ? 0 : rng.uniform_int(1, 120);
    const double kind = rng.uniform();
    item.profit = kind < 0.15   ? rng.uniform(-5.0, 0.0)
                  : kind < 0.45 ? rng.uniform(0.01, 0.5)  // zero-scaled
                                : rng.uniform(20.0, 60.0);
    item.prev_slot = prev;
    item.next_slot = prev + 1;
    if (rng.bernoulli(0.2)) item.next_profit = rng.uniform(0.01, 60.0);
    inst.items.push_back(item);
  }
  if (!dense_ids) {
    for (std::size_t i = inst.items.size(); i > 1; --i) {
      std::swap(inst.items[i - 1],
                inst.items[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
  }
  return inst;
}

TEST(SlackSlots, EveryBackendMatchesSortAlwaysOnMixedInstances) {
  Rng rng(4242);
  SchedWorkspace ws;
  std::size_t slack_slots = 0, binding = 0;
  for (int run = 0; run < 300; ++run) {
    const OverlapInstance inst = mixed_instance(rng, run % 2 == 0);
    const std::size_t want_sorts = binding_slots(inst);
    EXPECT_EQ(expect_all_backends_match(inst, ws), want_sorts);
    binding += want_sorts;
    slack_slots += inst.slots.size() - want_sorts;
  }
  // The sweep exercised both kinds of slot.
  EXPECT_GT(binding, 100u);
  EXPECT_GT(slack_slots, 100u);
}

TEST(SlackSlots, PositiveItemHeavierThanARoomySlotBinds) {
  // Slot 0 holds the light items many times over, but one positive
  // item outweighs it: the fractional bound breaks at that item, so
  // the slot must take the sorted path.
  OverlapInstance inst;
  inst.slots = {{0, 1000}, {1, 5000}};
  inst.items = {{0, 10, 5.0, 0, 1},
                {1, 20, 8.0, 0, 1},
                {2, 1500, 30.0, 0, 1},
                {3, 0, 2.0, 0, 1}};
  SchedWorkspace ws;
  EXPECT_EQ(binding_slots(inst), 1u);
  EXPECT_EQ(expect_all_backends_match(inst, ws), 1u);
}

TEST(SlackSlots, ZeroScaledLeftoversKeepRatioOrder) {
  // One slack slot: the FPTAS scales the small profits to 0 and leaves
  // them to GreedyAdd, which must place them best ratio first even
  // though the itemset itself is never sorted. Twenty leftovers, so
  // the order is not the input order by accident.
  OverlapInstance inst;
  inst.slots = {{0, 1'000'000}};
  inst.items.push_back({100, 50, 1000.0, 0, -1});
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    inst.items.push_back({i, rng.uniform_int(1, 90), rng.uniform(0.1, 4.0),
                          0, -1});
  }
  SchedWorkspace ws;
  SolverOptions options;
  SolveStats stats;
  const OverlapSolution sol =
      solve_overlapped(inst.slots, inst.items, options, ws, &stats);
  expect_same_solution(sort_always::solve(inst.slots, inst.items, options),
                       sol);
  EXPECT_EQ(stats.slot_sorts, 0u);
  EXPECT_EQ(sol.assignments.size(), inst.items.size());
  EXPECT_EQ(expect_all_backends_match(inst, ws), 0u);
}

TEST(SlackSlots, TiedLeftoversFallBackToTheSortedItemset) {
  // Two zero-scaled leftovers with equal ratio: the full sort decides
  // their order, so the slack slot sorts its itemset (one slot sort)
  // and still matches the reference.
  OverlapInstance inst;
  inst.slots = {{0, 1'000'000}};
  inst.items.push_back({0, 50, 1000.0, 0, -1});
  for (int i = 1; i <= 20; ++i) {
    inst.items.push_back({i, 2 * i, 0.5 * i, 0, -1});  // all ratio 1/4
  }
  SchedWorkspace ws;
  SolverOptions options;
  SolveStats stats;
  expect_same_solution(
      sort_always::solve(inst.slots, inst.items, options),
      solve_overlapped(inst.slots, inst.items, options, ws, &stats));
  EXPECT_EQ(stats.slot_sorts, 1u);
}

TEST(SlackSlots, ZeroWeightItemsAndAbsorbedProfits) {
  SchedWorkspace ws;
  // Zero-weight items only, in two overlapping slack slots.
  OverlapInstance free_items;
  free_items.slots = {{0, 0}, {1, 10}};
  free_items.items = {{3, 0, 1.0, 0, 1}, {1, 0, 4.0, 0, 1},
                      {2, 0, -1.0, 0, 1}, {0, 0, 2.5, -1, 1}};
  EXPECT_EQ(expect_all_backends_match(free_items, ws), 0u);
  // A profit a running sum would absorb (1e-20 next to 1): the copies
  // fit, but the exact DP takes the tiny copy only when it comes first,
  // so its choice depends on order and the slot takes the sorted path.
  OverlapInstance absorbed;
  absorbed.slots = {{0, 100}};
  absorbed.items = {{1, 5, 1e-20, 0, -1}, {0, 5, 1.0, 0, -1},
                    {2, 5, 2.0, 0, -1}};
  EXPECT_EQ(expect_all_backends_match(absorbed, ws), 1u);
}

TEST(SlackSlots, CounterTracksStats) {
  const std::uint64_t before = counter_value("sched.solver.slot_sorts");
  OverlapInstance inst;
  inst.slots = {{0, 15}, {1, 1000}};  // slot 0 binds, slot 1 is slack
  inst.items = {{0, 10, 5.0, 0, 1}, {1, 10, 6.0, 0, 1}};
  SchedWorkspace ws;
  SolveStats stats;
  (void)solve_overlapped(inst.slots, inst.items, {}, ws, &stats);
  EXPECT_EQ(stats.slot_sorts, 1u);
  EXPECT_EQ(counter_value("sched.solver.slot_sorts"), before + 1);
}

}  // namespace
}  // namespace netmaster::sched
