#include "sched/overlap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sched/knapsack.hpp"
#include "sched/solver.hpp"

namespace netmaster::sched {

namespace {

/// Per-item checks shared by both overlap solvers. Id uniqueness is
/// checked separately (by `build_id_index` on the hot path, or a local
/// sort for the brute-force solver) so the hot path never builds a map.
void validate_instance_common(std::span<const OverlapSlot> slots,
                              std::span<const OverlapItem> items) {
  for (const OverlapSlot& slot : slots) {
    NM_REQUIRE(slot.capacity >= 0, "slot capacity must be non-negative");
  }
  const int n = static_cast<int>(slots.size());
  for (const OverlapItem& item : items) {
    NM_REQUIRE(item.weight >= 0, "item weight must be non-negative");
    NM_REQUIRE(std::isfinite(item.profit), "item profits must be finite");
    // Per-candidate overrides: NaN is the "use the shared profit"
    // sentinel; anything else must be finite like the base profit.
    NM_REQUIRE(std::isnan(item.prev_profit) ||
                   std::isfinite(item.prev_profit),
               "per-candidate profits must be finite");
    NM_REQUIRE(std::isnan(item.next_profit) ||
                   std::isfinite(item.next_profit),
               "per-candidate profits must be finite");
    NM_REQUIRE(item.prev_slot >= -1 && item.prev_slot < n,
               "prev_slot out of range");
    NM_REQUIRE(item.next_slot >= -1 && item.next_slot < n,
               "next_slot out of range");
    NM_REQUIRE(item.prev_slot != item.next_slot || item.prev_slot == -1,
               "candidate slots must differ");
  }
}

void validate_instance(std::span<const OverlapSlot> slots,
                       std::span<const OverlapItem> items) {
  validate_instance_common(slots, items);
  std::vector<int> ids;
  ids.reserve(items.size());
  for (const OverlapItem& item : items) ids.push_back(item.id);
  std::sort(ids.begin(), ids.end());
  NM_REQUIRE(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
             "item ids must be unique");
}

/// Rebuilds the workspace's flat id→item index (sorted by id). This is
/// the replacement for the seed-era `std::map<int, const OverlapItem*>`
/// that was built twice per solve: one reused vector, sorted only when
/// the ids are not already ascending (`build_instance` emits 0..n−1),
/// binary search lookups, and iterating positions 0..n−1 walks items in
/// ascending-id order exactly like map iteration did.
void build_id_index(std::span<const OverlapItem> items, SchedWorkspace& ws) {
  auto& index = ws.id_index;
  index.clear();
  index.reserve(items.size());
  for (const OverlapItem& item : items) index.emplace_back(item.id, &item);
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(index.begin(), index.end(), by_id)) {
    std::sort(index.begin(), index.end(), by_id);
  }
  for (std::size_t i = 1; i < index.size(); ++i) {
    NM_REQUIRE(index[i - 1].first != index[i].first,
               "item ids must be unique");
  }
}

/// Position of `id` in the sorted index, or npos when absent.
std::size_t index_position(const SchedWorkspace& ws, int id) {
  const auto& index = ws.id_index;
  const auto it = std::lower_bound(
      index.begin(), index.end(), id,
      [](const auto& entry, int value) { return entry.first < value; });
  if (it == index.end() || it->first != id) {
    return static_cast<std::size_t>(-1);
  }
  return static_cast<std::size_t>(it - index.begin());
}

/// check_feasible body against an already-built ws.id_index.
/// `position_of(k)` names the index position of assignment k: the
/// public check searches for its id, the solver passes the position it
/// emitted the assignment from. Either way the position must hold the
/// assignment's id.
template <typename PositionOf>
void check_feasible_indexed(std::span<const OverlapSlot> slots,
                            std::span<const OverlapItem> items,
                            const OverlapSolution& solution,
                            SchedWorkspace& ws, PositionOf position_of) {
  ws.used.assign(slots.size(), 0);
  ws.times_assigned.assign(items.size(), 0);
  double profit = 0.0;
  for (std::size_t k = 0; k < solution.assignments.size(); ++k) {
    const OverlapAssignment& a = solution.assignments[k];
    const std::size_t pos = position_of(k);
    NM_REQUIRE(pos < ws.id_index.size() &&
                   ws.id_index[pos].first == a.item_id,
               "assignment references unknown item");
    const OverlapItem& item = *ws.id_index[pos].second;
    NM_REQUIRE(a.slot_index == item.prev_slot ||
                   a.slot_index == item.next_slot,
               "item assigned to a non-candidate slot");
    NM_REQUIRE(++ws.times_assigned[pos] == 1,
               "item assigned more than once");
    ws.used[static_cast<std::size_t>(a.slot_index)] += item.weight;
    profit += item.profit_in(a.slot_index);
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    NM_REQUIRE(ws.used[i] <= slots[i].capacity, "slot capacity exceeded");
  }
  NM_REQUIRE(std::abs(profit - solution.total_profit) <=
                 1e-6 * std::max(1.0, std::abs(profit)),
             "reported profit does not match assignments");
}

/// Whether a slot's capacity cannot bind: its positive-profit copies
/// fit together, and none of their profits is small enough next to
/// their sum (under 2^-50 of it) for a running floating-point sum to
/// absorb it. On such a slot each backend's chosen set does not depend
/// on the copies' order — the FPTAS takes every positive-scaled copy,
/// the exact DP and greedy every positive one — and the fractional
/// bound is the positive profit sum, written to `bound`. A positive
/// copy heavier than the slot makes it binding.
bool slack_slot(std::span<const KnapItem> list, std::int64_t capacity,
                double& bound) {
  std::int64_t weight = 0;
  double sum = 0.0;
  double least = std::numeric_limits<double>::infinity();
  for (const KnapItem& ki : list) {
    if (ki.profit <= 0.0) continue;
    if (ki.weight > capacity - weight) return false;
    weight += ki.weight;
    sum += ki.profit;
    least = std::min(least, ki.profit);
  }
  if (least < std::ldexp(sum, -50)) return false;
  bound = sum;
  return true;
}

/// kAuto's per-slot choice. The weight-indexed exact table
/// n·(capacity+1) runs when it is at most kAutoExactCells and no larger
/// than the FPTAS worst case n²·⌈n/ε⌉; doubles sidestep overflow on
/// byte-scale capacities. The ceiling sits well under the exact
/// kernel's hard 4e8-cell limit, so auto never throws on size.
constexpr double kAutoExactCells = 1e6;

SolverChoice auto_backend(std::size_t n, std::int64_t capacity, double eps) {
  if (n == 0) return SolverChoice::kFptas;
  const auto nd = static_cast<double>(n);
  const double exact_cells = nd * (static_cast<double>(capacity) + 1.0);
  const double fptas_cells = nd * nd * std::ceil(nd / eps);
  return exact_cells <= kAutoExactCells && exact_cells <= fptas_cells
             ? SolverChoice::kExact
             : SolverChoice::kFptas;
}

}  // namespace

void check_feasible(std::span<const OverlapSlot> slots,
                    std::span<const OverlapItem> items,
                    const OverlapSolution& solution) {
  SchedWorkspace& ws = thread_workspace();
  build_id_index(items, ws);
  check_feasible_indexed(slots, items, solution, ws, [&](std::size_t k) {
    return index_position(ws, solution.assignments[k].item_id);
  });
}

OverlapSolution solve_overlapped(std::span<const OverlapSlot> slots,
                                 std::span<const OverlapItem> items,
                                 const SolverOptions& options,
                                 SchedWorkspace& ws, SolveStats* stats_out) {
  options.validate();
  validate_instance_common(slots, items);
  build_id_index(items, ws);  // also enforces id uniqueness
  ++ws.solves_;

  SolveStats stats;
  stats.requested = options.choice;
  stats.items = items.size();
  stats.slots = slots.size();

  // Step 1 (duplication): per-slot itemsets, each item in both
  // candidate slots. The outer vector only grows; per-slot vectors keep
  // their capacity across solves. Each copy is tagged with the item's
  // position in the sorted id index instead of its id, so the filter
  // and GreedyAdd steps below index their per-item scratch directly.
  // Items are still pushed in input order: ratio ties break as before.
  const std::size_t n = items.size();
  ws.rank.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    ws.rank[static_cast<std::size_t>(ws.id_index[pos].second -
                                     items.data())] = static_cast<int>(pos);
  }
  auto& slot_items = ws.slot_items;
  if (slot_items.size() < slots.size()) slot_items.resize(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) slot_items[s].clear();
  for (std::size_t i = 0; i < n; ++i) {
    const OverlapItem& item = items[i];
    for (int s : {item.prev_slot, item.next_slot}) {
      if (s >= 0) {
        // The duplicated copy carries the candidate's effective profit
        // (the shared profit unless the item overrides this slot).
        slot_items[static_cast<std::size_t>(s)].push_back(
            {ws.rank[i], item.profit_in(s), item.weight});
      }
    }
  }

  // Step 2 (sorting) + step 3 (SinKnap per slot). The FPTAS does not
  // require sorted input, but a binding slot keeps the paper's ordering
  // so its itemset matches Algorithm 1 line by line (and ties in the
  // later greedy step resolve in ratio order). A slack slot skips the
  // sort: its kernel's chosen set is the same in any order, and
  // GreedyAdd below orders only the slot's leftovers. kAuto picks its
  // kernel per slot.
  auto& chosen_per_slot = ws.chosen_per_slot;
  if (chosen_per_slot.size() < slots.size()) {
    chosen_per_slot.resize(slots.size());
  }
  ws.slot_sorted.assign(slots.size(), 0);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& list = slot_items[s];
    const std::int64_t capacity = slots[s].capacity;
    stats.duplicated_items += list.size();
    double bound = 0.0;
    if (!slack_slot(list, capacity, bound)) {
      std::sort(list.begin(), list.end(), ratio_before);
      ws.slot_sorted[s] = 1;
      ++stats.slot_sorts;
      bound = fractional_upper_bound(list, capacity);
    }
    stats.upper_bound += bound;

    const SolverChoice backend =
        options.choice == SolverChoice::kAuto
            ? auto_backend(list.size(), capacity, options.eps)
            : options.choice;
    switch (backend) {
      case SolverChoice::kFptas:
        ++stats.slot_solves_fptas;
        chosen_per_slot[s] = knapsack_fptas(list, capacity, options.eps, ws,
                                            &stats.dp_cells)
                                 .chosen;
        break;
      case SolverChoice::kExact:
        ++stats.slot_solves_exact;
        chosen_per_slot[s] =
            knapsack_exact(list, capacity, ws, &stats.dp_cells).chosen;
        break;
      case SolverChoice::kGreedy:
        ++stats.slot_solves_greedy;
        chosen_per_slot[s] = knapsack_greedy(list, capacity, ws).chosen;
        break;
      case SolverChoice::kAuto:
        NM_ASSERT(false, "auto must resolve to a concrete backend");
        break;
    }
  }

  // Step 4a (filtering): an item selected in both slots keeps the slot
  // with the smaller C(ti) − V(nj) — the tighter fit — leaving the
  // roomier slot free for GreedyAdd. Candidate slots are gathered into
  // flat per-position scratch (position in the sorted id index), and
  // the position walk below visits items in ascending-id order, exactly
  // like the seed-era `std::map<int, std::vector<int>>` iteration.
  ws.cand_slot[0].resize(n);
  ws.cand_slot[1].resize(n);
  ws.cand_count.assign(n, 0);
  ws.assigned.assign(n, 0);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (int chosen : chosen_per_slot[s]) {
      const auto pos = static_cast<std::size_t>(chosen);
      NM_ASSERT(pos < n, "SinKnap chose an unknown item");
      NM_ASSERT(ws.cand_count[pos] < 2, "item chosen in more than 2 slots");
      ws.cand_slot[ws.cand_count[pos]][pos] = static_cast<int>(s);
      ++ws.cand_count[pos];
    }
  }

  OverlapSolution solution;
  solution.slot_used.assign(slots.size(), 0);
  ws.assignment_pos.clear();
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (ws.cand_count[pos] == 0) continue;
    const OverlapItem& item = *ws.id_index[pos].second;
    int slot = ws.cand_slot[0][pos];
    if (ws.cand_count[pos] == 2) {
      const int c0 = ws.cand_slot[0][pos];
      const int c1 = ws.cand_slot[1][pos];
      // With per-candidate profits the two copies are no longer worth
      // the same: keep the more profitable slot. Equal profits (the
      // paper's shared-profit convention) fall back to Algorithm 1's
      // rule: keep the slot with the smaller C(ti) − V(nj).
      const double p0 = item.profit_in(c0);
      const double p1 = item.profit_in(c1);
      if (p0 != p1) {
        slot = p0 > p1 ? c0 : c1;
      } else {
        const std::int64_t r0 =
            slots[static_cast<std::size_t>(c0)].capacity - item.weight;
        const std::int64_t r1 =
            slots[static_cast<std::size_t>(c1)].capacity - item.weight;
        slot = r0 <= r1 ? c0 : c1;
      }
    }
    solution.assignments.push_back({item.id, slot});
    ws.assignment_pos.push_back(pos);
    solution.slot_used[static_cast<std::size_t>(slot)] += item.weight;
    solution.total_profit += item.profit_in(slot);
    ws.assigned[pos] = 1;
  }

  // Capacity cannot overflow after filtering: each slot only lost items
  // relative to its feasible SinKnap packing.
  // Step 4b (GreedyAdd): fill residual capacity with still-unassigned
  // items, best ratio first. On a slack slot every leftover fits, so
  // only their order matters: sorting just the leftovers gives the
  // order they hold in the sorted itemset, unless two tie in ratio and
  // the full sort's tie order decides, so then the itemset is sorted.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::int64_t residual = slots[s].capacity - solution.slot_used[s];
    std::span<const KnapItem> walk = slot_items[s];
    if (ws.slot_sorted[s] == 0) {
      auto& leftovers = ws.leftovers;
      leftovers.clear();
      for (const KnapItem& ki : slot_items[s]) {
        if (ws.assigned[static_cast<std::size_t>(ki.id)] == 0 &&
            ki.profit > 0.0) {
          leftovers.push_back(ki);
        }
      }
      std::sort(leftovers.begin(), leftovers.end(), ratio_before);
      const bool tie =
          std::adjacent_find(leftovers.begin(), leftovers.end(),
                             [](const KnapItem& a, const KnapItem& b) {
                               return !ratio_before(a, b);
                             }) != leftovers.end();
      if (tie) {
        std::sort(slot_items[s].begin(), slot_items[s].end(), ratio_before);
        ++stats.slot_sorts;
      } else {
        walk = leftovers;
      }
    }
    for (const KnapItem& ki : walk) {
      const auto pos = static_cast<std::size_t>(ki.id);
      if (ws.assigned[pos] != 0 || ki.profit <= 0.0) continue;
      if (ki.weight <= residual) {
        solution.assignments.push_back(
            {ws.id_index[pos].first, static_cast<int>(s)});
        ws.assignment_pos.push_back(pos);
        solution.slot_used[s] += ki.weight;
        solution.total_profit += ki.profit;
        residual -= ki.weight;
        ws.assigned[pos] = 1;
      }
    }
  }

  // Every assignment above came from an index position: check by it.
  check_feasible_indexed(slots, items, solution, ws, [&](std::size_t k) {
    return ws.assignment_pos[k];
  });

  stats.profit = solution.total_profit;
  if (stats.upper_bound > 0.0) {
    stats.gap = std::clamp(
        (stats.upper_bound - stats.profit) / stats.upper_bound, 0.0, 1.0);
  }

  struct SolverMetrics {
    obs::Counter& solves;
    obs::Counter& items;
    obs::Counter& slots;
    obs::Counter& dp_cells;
    obs::Counter& slot_sorts;
    obs::Counter& backend_fptas;
    obs::Counter& backend_exact;
    obs::Counter& backend_greedy;
    obs::Histogram& gap;
  };
  static SolverMetrics metrics{
      obs::Registry::global().counter("sched.solver.solves"),
      obs::Registry::global().counter("sched.solver.items"),
      obs::Registry::global().counter("sched.solver.slots"),
      obs::Registry::global().counter("sched.solver.dp_cells"),
      obs::Registry::global().counter("sched.solver.slot_sorts"),
      obs::Registry::global().counter("sched.solver.slot_solves.fptas"),
      obs::Registry::global().counter("sched.solver.slot_solves.exact"),
      obs::Registry::global().counter("sched.solver.slot_solves.greedy"),
      obs::Registry::global().histogram("sched.solver.gap",
                                        obs::fraction_bounds()),
  };
  metrics.solves.add(1);
  metrics.items.add(stats.items);
  metrics.slots.add(stats.slots);
  metrics.dp_cells.add(stats.dp_cells);
  metrics.slot_sorts.add(stats.slot_sorts);
  metrics.backend_fptas.add(stats.slot_solves_fptas);
  metrics.backend_exact.add(stats.slot_solves_exact);
  metrics.backend_greedy.add(stats.slot_solves_greedy);
  metrics.gap.add(stats.gap);

  if (stats_out != nullptr) *stats_out = stats;
  return solution;
}

OverlapSolution solve_overlapped_exact(std::span<const OverlapSlot> slots,
                                       std::span<const OverlapItem> items) {
  validate_instance(slots, items);
  NM_REQUIRE(items.size() <= 18, "exact solver limited to 18 items");

  std::vector<std::int64_t> used(slots.size(), 0);
  std::vector<int> choice(items.size(), -1);  // -1 none, else slot index

  OverlapSolution best;
  best.slot_used.assign(slots.size(), 0);
  double best_profit = -1.0;

  // Depth-first enumeration with capacity pruning.
  auto recurse = [&](auto&& self, std::size_t i, double profit) -> void {
    if (i == items.size()) {
      if (profit > best_profit) {
        best_profit = profit;
        best.assignments.clear();
        for (std::size_t j = 0; j < items.size(); ++j) {
          if (choice[j] >= 0) {
            best.assignments.push_back({items[j].id, choice[j]});
          }
        }
        best.total_profit = profit;
        best.slot_used = used;
      }
      return;
    }
    const OverlapItem& item = items[i];
    // Skip.
    choice[i] = -1;
    self(self, i + 1, profit);
    // Assign to each feasible candidate (only if profitable — dropping
    // non-positive candidates never hurts the optimum). The profit is
    // per candidate: a Wi-Fi copy may be worth more than the cellular
    // one.
    for (int s : {item.prev_slot, item.next_slot}) {
      if (s < 0) continue;
      const double p = item.profit_in(s);
      if (p <= 0.0) continue;
      auto& u = used[static_cast<std::size_t>(s)];
      if (u + item.weight <=
          slots[static_cast<std::size_t>(s)].capacity) {
        u += item.weight;
        choice[i] = s;
        self(self, i + 1, profit + p);
        choice[i] = -1;
        u -= item.weight;
      }
    }
  };
  recurse(recurse, 0, 0.0);

  check_feasible(slots, items, best);
  return best;
}

}  // namespace netmaster::sched
