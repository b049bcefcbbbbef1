// Multiple knapsack with overlapped itemsets — the paper's Algorithm 1.
//
// Each deferrable screen-off activity (item) sits between two adjacent
// predicted user-active slots and may be scheduled into either one
// (prefetch into the earlier slot or defer into the later slot), so the
// per-slot itemsets overlap. Algorithm 1 solves this with a
// (1−ε)/2-approximation:
//   1. Duplication — put each item into both candidate slots.
//   2. Sorting — order each slot's items by profit/weight (only where
//      the capacity binds; a slack slot's answer needs no order).
//   3. Dynamic programming — run SinKnap (the (1−ε) FPTAS) per slot.
//   4. Filtering — an item chosen twice keeps the slot with smaller
//      C(ti) − V(nj) and is deleted from the other; then GreedyAdd
//      fills remaining capacity with unassigned items.
//
// This header holds the instance and solution types. The one
// Algorithm 1 entry point, `solve_overlapped`, is declared in
// sched/solver.hpp next to its backend choice and workspace;
// `solve_overlapped_exact` is a brute-force ground truth for small
// instances, used to verify the (1−ε)/2 bound empirically.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "power/radio_model.hpp"

namespace netmaster::sched {

/// One schedulable activity. Profit is ΔE − ΔP; per the paper a
/// duplicated item has the same profit in both candidate slots.
///
/// The multi-radio extension allows a per-candidate override: when
/// `prev_profit` / `next_profit` is set (non-NaN) the duplicated copy
/// in that slot carries the override instead of `profit` — a Wi-Fi
/// window candidate values the same bytes differently than a cellular
/// slot (different isolated cost, association overhead, deferral
/// window). NaN (the default) keeps the paper's shared-profit
/// convention, and every solver then behaves exactly as before.
struct OverlapItem {
  int id = 0;
  std::int64_t weight = 0;  ///< V(n), bytes
  double profit = 0.0;      ///< ΔE − ΔP
  int prev_slot = -1;       ///< index of the preceding active slot, or -1
  int next_slot = -1;       ///< index of the following active slot, or -1
  double prev_profit = std::numeric_limits<double>::quiet_NaN();
  double next_profit = std::numeric_limits<double>::quiet_NaN();

  /// Effective profit of this item inside candidate `slot_index`.
  double profit_in(int slot_index) const {
    if (slot_index == prev_slot && !std::isnan(prev_profit)) {
      return prev_profit;
    }
    if (slot_index == next_slot && !std::isnan(next_profit)) {
      return next_profit;
    }
    return profit;
  }
};

/// One user-active slot acting as a knapsack. `radio` tags which
/// interface the slot's transfers execute on — predicted user-active
/// slots are cellular piggyback windows, predicted Wi-Fi presence
/// windows carry offloads; the solver itself never branches on it.
struct OverlapSlot {
  int id = 0;
  std::int64_t capacity = 0;  ///< C(ti) = Bandwidth · |ti|, bytes
  RadioId radio = RadioId::kCellular;
};

/// item -> slot assignment (slot_index indexes the input slot span).
struct OverlapAssignment {
  int item_id = 0;
  int slot_index = 0;

  friend bool operator==(const OverlapAssignment&,
                         const OverlapAssignment&) = default;
};

struct OverlapSolution {
  std::vector<OverlapAssignment> assignments;  ///< each item at most once
  double total_profit = 0.0;
  std::vector<std::int64_t> slot_used;  ///< bytes packed per slot index
};

/// Exhaustive optimum (each item: prev / next / unassigned). Guarded to
/// small instances (items <= 18).
OverlapSolution solve_overlapped_exact(std::span<const OverlapSlot> slots,
                                       std::span<const OverlapItem> items);

/// Validates feasibility of a solution against an instance; throws
/// netmaster::Error on violation. Used by tests and by the policy layer
/// as a defensive check.
void check_feasible(std::span<const OverlapSlot> slots,
                    std::span<const OverlapItem> items,
                    const OverlapSolution& solution);

}  // namespace netmaster::sched
