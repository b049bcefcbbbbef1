// Tests for Algorithm 1 — the multiple knapsack with overlapped
// itemsets — including the (1−ε)/2 bound against brute force.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/overlap.hpp"
#include "sched/solver.hpp"

namespace netmaster::sched {
namespace {

TEST(OverlapExact, SimpleAssignment) {
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  const std::vector<OverlapItem> items = {
      {0, 6, 5.0, 0, 1},
      {1, 6, 4.0, 0, 1},
  };
  const OverlapSolution s = solve_overlapped_exact(slots, items);
  // Both fit only if split across the two slots.
  EXPECT_DOUBLE_EQ(s.total_profit, 9.0);
  EXPECT_EQ(s.assignments.size(), 2u);
  EXPECT_NE(s.assignments[0].slot_index, s.assignments[1].slot_index);
}

TEST(OverlapExact, SkipsWhenNothingFits) {
  const std::vector<OverlapSlot> slots = {{0, 3}};
  const std::vector<OverlapItem> items = {{0, 5, 10.0, 0, -1}};
  const OverlapSolution s = solve_overlapped_exact(slots, items);
  EXPECT_DOUBLE_EQ(s.total_profit, 0.0);
  EXPECT_TRUE(s.assignments.empty());
}

TEST(OverlapExact, NegativeProfitNeverAssigned) {
  const std::vector<OverlapSlot> slots = {{0, 100}};
  const std::vector<OverlapItem> items = {{0, 5, -1.0, 0, -1},
                                          {1, 5, 2.0, 0, -1}};
  const OverlapSolution s = solve_overlapped_exact(slots, items);
  EXPECT_DOUBLE_EQ(s.total_profit, 2.0);
  EXPECT_EQ(s.assignments.size(), 1u);
}

TEST(OverlapExact, SizeGuard) {
  std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  std::vector<OverlapItem> items;
  for (int i = 0; i < 19; ++i) items.push_back({i, 1, 1.0, 0, 1});
  EXPECT_THROW(solve_overlapped_exact(slots, items), Error);
}

TEST(Algorithm1, FeasibleAndSingleAssignment) {
  const std::vector<OverlapSlot> slots = {{0, 20}, {1, 15}, {2, 10}};
  std::vector<OverlapItem> items;
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    const int prev = static_cast<int>(rng.uniform_int(0, 1));
    items.push_back({i, rng.uniform_int(1, 12), rng.uniform(0.5, 9.0),
                     prev, prev + 1});
  }
  const OverlapSolution s = solve_overlapped(slots, items);
  // check_feasible already ran inside; assert the invariants here too.
  std::vector<int> seen;
  for (const OverlapAssignment& a : s.assignments) {
    seen.push_back(a.item_id);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_LE(s.slot_used[i], slots[i].capacity);
  }
}

TEST(Algorithm1, SingleCandidateSlotItems) {
  // Items at the horizon edges have only one candidate slot.
  const std::vector<OverlapSlot> slots = {{0, 10}};
  const std::vector<OverlapItem> items = {{0, 4, 3.0, -1, 0},
                                          {1, 4, 2.0, 0, -1}};
  const OverlapSolution s = solve_overlapped(slots, items);
  EXPECT_DOUBLE_EQ(s.total_profit, 5.0);
}

TEST(Algorithm1, EmptyInstances) {
  EXPECT_DOUBLE_EQ(solve_overlapped({}, {}).total_profit, 0.0);
  const std::vector<OverlapSlot> slots = {{0, 10}};
  EXPECT_DOUBLE_EQ(solve_overlapped(slots, {}).total_profit, 0.0);
}

TEST(Algorithm1, ValidationErrors) {
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, -5}};
  EXPECT_THROW(solve_overlapped(slots, {}), Error);

  const std::vector<OverlapSlot> ok = {{0, 10}, {1, 10}};
  std::vector<OverlapItem> dup = {{7, 1, 1.0, 0, 1}, {7, 1, 1.0, 0, 1}};
  EXPECT_THROW(solve_overlapped(ok, dup), Error);

  std::vector<OverlapItem> oob = {{0, 1, 1.0, 0, 5}};
  EXPECT_THROW(solve_overlapped(ok, oob), Error);

  std::vector<OverlapItem> same = {{0, 1, 1.0, 1, 1}};
  EXPECT_THROW(solve_overlapped(ok, same), Error);

  std::vector<OverlapItem> fine = {{0, 1, 1.0, 0, 1}};
  EXPECT_THROW(solve_overlapped(ok, fine, {.eps = 0.0}), Error);
  EXPECT_THROW(solve_overlapped(ok, fine, {.eps = 1.0}), Error);
}

TEST(Algorithm1, RejectsNonFiniteProfit) {
  // Instance validation must catch non-finite profits before any item
  // reaches the per-slot kernels, for every solve entry point.
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    const std::vector<OverlapItem> items = {{0, 1, 2.0, 0, 1},
                                            {1, 1, bad, 0, 1}};
    EXPECT_THROW(solve_overlapped(slots, items), Error);
    EXPECT_THROW(solve_overlapped_exact(slots, items), Error);
  }
}

TEST(CheckFeasible, CatchesViolations) {
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  const std::vector<OverlapItem> items = {{0, 6, 5.0, 0, 1}};

  OverlapSolution double_assign;
  double_assign.assignments = {{0, 0}, {0, 1}};
  double_assign.slot_used = {6, 6};
  double_assign.total_profit = 10.0;
  EXPECT_THROW(check_feasible(slots, items, double_assign), Error);

  OverlapSolution wrong_slot;
  wrong_slot.assignments = {{0, 0}};
  wrong_slot.slot_used = {6, 0};
  wrong_slot.total_profit = 5.0;
  std::vector<OverlapItem> narrow = {{0, 6, 5.0, 1, -1}};
  EXPECT_THROW(check_feasible(slots, narrow, wrong_slot), Error);

  OverlapSolution wrong_profit;
  wrong_profit.assignments = {{0, 0}};
  wrong_profit.slot_used = {6, 0};
  wrong_profit.total_profit = 99.0;
  EXPECT_THROW(check_feasible(slots, items, wrong_profit), Error);

  OverlapSolution unknown_item;
  unknown_item.assignments = {{42, 0}};
  unknown_item.slot_used = {0, 0};
  unknown_item.total_profit = 0.0;
  EXPECT_THROW(check_feasible(slots, items, unknown_item), Error);
}

// ---- Per-candidate profit overrides (multi-radio candidates) ----

TEST(PerCandidateProfit, ProfitInSelectsOverride) {
  OverlapItem item{0, 5, 3.0, 1, 4};
  // NaN defaults: both candidates share the item profit.
  EXPECT_DOUBLE_EQ(item.profit_in(1), 3.0);
  EXPECT_DOUBLE_EQ(item.profit_in(4), 3.0);
  item.prev_profit = 1.0;
  item.next_profit = 9.0;
  EXPECT_DOUBLE_EQ(item.profit_in(1), 1.0);
  EXPECT_DOUBLE_EQ(item.profit_in(4), 9.0);
  // Any other index falls back to the shared profit.
  EXPECT_DOUBLE_EQ(item.profit_in(2), 3.0);
}

TEST(PerCandidateProfit, SolversPickTheRicherCandidate) {
  // Both slots have room for the single item; its Wi-Fi-style next
  // candidate is worth 9 against 1 for the cellular prev — both
  // solvers must land it in slot 1.
  const std::vector<OverlapSlot> slots = {{0, 10},
                                          {1, 10, RadioId::kWifi}};
  OverlapItem item{0, 5, 1.0, 0, 1};
  item.prev_profit = 1.0;
  item.next_profit = 9.0;
  const std::vector<OverlapItem> items = {item};
  for (const OverlapSolution& s :
       {solve_overlapped_exact(slots, items),
        solve_overlapped(slots, items)}) {
    ASSERT_EQ(s.assignments.size(), 1u);
    EXPECT_EQ(s.assignments[0].slot_index, 1);
    EXPECT_DOUBLE_EQ(s.total_profit, 9.0);
  }
}

TEST(PerCandidateProfit, NegativeCandidateNeverChosen) {
  // A Wi-Fi candidate whose association cost outweighs the saving gets
  // a negative override; the item must take its cellular slot instead,
  // and take nothing if the cellular slot is full.
  const std::vector<OverlapSlot> slots = {{0, 10},
                                          {1, 100, RadioId::kWifi}};
  OverlapItem item{0, 5, 2.0, 0, 1};
  item.next_profit = -0.5;
  const std::vector<OverlapItem> items = {item};
  const OverlapSolution s = solve_overlapped_exact(slots, items);
  ASSERT_EQ(s.assignments.size(), 1u);
  EXPECT_EQ(s.assignments[0].slot_index, 0);

  const std::vector<OverlapSlot> tight = {{0, 3},
                                          {1, 100, RadioId::kWifi}};
  const OverlapSolution none = solve_overlapped_exact(tight, items);
  EXPECT_TRUE(none.assignments.empty());
  EXPECT_DOUBLE_EQ(none.total_profit, 0.0);
}

TEST(PerCandidateProfit, NanDefaultBitCompatibleWithSharedProfit) {
  // Explicitly setting both overrides to the shared value must produce
  // the same solutions (bitwise profits) as the NaN defaults, across
  // random instances and both solvers.
  Rng rng(2026);
  for (int run = 0; run < 20; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<OverlapSlot> slots;
    for (int s = 0; s < n_slots; ++s) {
      slots.push_back({s, rng.uniform_int(20, 120)});
    }
    std::vector<OverlapItem> plain, pinned;
    const int n_items = static_cast<int>(rng.uniform_int(4, 12));
    for (int i = 0; i < n_items; ++i) {
      const int prev = static_cast<int>(rng.uniform_int(0, n_slots - 2));
      OverlapItem item{i, rng.uniform_int(5, 60), rng.uniform(0.5, 40.0),
                       prev, prev + 1};
      plain.push_back(item);
      item.prev_profit = item.profit;
      item.next_profit = item.profit;
      pinned.push_back(item);
    }
    const OverlapSolution a = solve_overlapped(slots, plain);
    const OverlapSolution b = solve_overlapped(slots, pinned);
    EXPECT_EQ(a.total_profit, b.total_profit) << "run " << run;
    EXPECT_EQ(a.assignments.size(), b.assignments.size()) << "run " << run;
    EXPECT_EQ(solve_overlapped_exact(slots, plain).total_profit,
              solve_overlapped_exact(slots, pinned).total_profit);
  }
}

TEST(PerCandidateProfit, CheckFeasibleUsesPerCandidateTotals) {
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  OverlapItem item{0, 5, 1.0, 0, 1};
  item.next_profit = 9.0;
  const std::vector<OverlapItem> items = {item};
  OverlapSolution s;
  s.assignments = {{0, 1}};
  s.slot_used = {0, 5};
  s.total_profit = 9.0;
  EXPECT_NO_THROW(check_feasible(slots, items, s));
  s.total_profit = 1.0;  // the shared profit is NOT the slot-1 value
  EXPECT_THROW(check_feasible(slots, items, s), Error);
}

TEST(PerCandidateProfit, RejectsNonFiniteOverride) {
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  OverlapItem item{0, 5, 1.0, 0, 1};
  item.next_profit = std::numeric_limits<double>::infinity();
  const std::vector<OverlapItem> items = {item};
  EXPECT_THROW(solve_overlapped(slots, items), Error);
}

// Property suite: Algorithm 1 achieves at least (1−ε)/2 of the
// brute-force optimum on random overlapped instances.
struct BoundCase {
  double eps;
  std::uint64_t seed;
};

class Algorithm1Bound : public ::testing::TestWithParam<BoundCase> {};

TEST_P(Algorithm1Bound, AchievesHalfGuarantee) {
  const auto [eps, seed] = GetParam();
  Rng rng(seed);
  for (int run = 0; run < 20; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<OverlapSlot> slots;
    for (int s = 0; s < n_slots; ++s) {
      slots.push_back({s, rng.uniform_int(20, 120)});
    }
    std::vector<OverlapItem> items;
    const int n_items = static_cast<int>(rng.uniform_int(4, 12));
    for (int i = 0; i < n_items; ++i) {
      const int prev = static_cast<int>(rng.uniform_int(0, n_slots - 2));
      items.push_back({i, rng.uniform_int(5, 60), rng.uniform(0.5, 40.0),
                       prev, prev + 1});
    }
    const double exact =
        solve_overlapped_exact(slots, items).total_profit;
    const double approx =
        solve_overlapped(slots, items, {.eps = eps}).total_profit;
    EXPECT_GE(approx, (1.0 - eps) / 2.0 * exact - 1e-9)
        << "eps=" << eps << " run=" << run;
    EXPECT_LE(approx, exact + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsGrid, Algorithm1Bound,
    ::testing::Values(BoundCase{0.05, 11}, BoundCase{0.1, 12},
                      BoundCase{0.1, 13}, BoundCase{0.25, 14},
                      BoundCase{0.5, 15}, BoundCase{0.9, 16}));

}  // namespace
}  // namespace netmaster::sched
