#include "sched/instance.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace netmaster::sched {

namespace {

/// `windows` sorted by begin; throws `what` unless they are disjoint.
std::vector<Interval> sorted_disjoint(std::span<const Interval> windows,
                                      const char* what) {
  std::vector<Interval> sorted(windows.begin(), windows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    NM_REQUIRE(sorted[i].begin >= sorted[i - 1].end, what);
  }
  return sorted;
}

/// Index of the first window beginning after `t` (size() when none).
std::size_t first_begin_after(std::span<const Interval> windows, TimeMs t) {
  return static_cast<std::size_t>(
      std::upper_bound(windows.begin(), windows.end(), t,
                       [](TimeMs v, const Interval& w) {
                         return v < w.begin;
                       }) -
      windows.begin());
}

}  // namespace

double energy_saving_j(const NetworkActivity& activity,
                       const ProfitConfig& config) {
  return isolated_activity_energy(activity.duration, config.radio) -
         piggybacked_activity_energy(activity.duration, config.radio);
}

double deferral_penalty_j(TimeMs from, TimeMs to,
                          const mining::SlotPredictor& predictor,
                          const ProfitConfig& config) {
  const TimeMs lo = std::min(from, to);
  const TimeMs hi = std::max(from, to);
  const double window_s = to_seconds(hi - lo);
  const double pr_integral_s =
      predictor.active_probability_integral(lo, hi);
  return config.et_j_per_s2 * window_s * pr_integral_s;
}

std::int64_t slot_capacity_bytes(const Interval& slot,
                                 const ProfitConfig& config) {
  NM_REQUIRE(config.bandwidth_kbps > 0.0, "bandwidth must be positive");
  return static_cast<std::int64_t>(config.bandwidth_kbps * 1000.0 *
                                   to_seconds(slot.length()));
}

TimeMs assignment_anchor(const Interval& slot, TimeMs activity_time) {
  if (slot.end <= activity_time) return slot.end;    // preceding slot
  if (slot.begin >= activity_time) return slot.begin;  // following slot
  return activity_time;  // activity already inside the slot
}

DurationMs wifi_transfer_ms(const NetworkActivity& activity,
                            const ProfitConfig& config) {
  NM_REQUIRE(config.wifi_bandwidth_kbps > 0.0,
             "wifi bandwidth must be positive");
  // kB/s is bytes-per-millisecond, so the division lands in ms.
  const double ms = static_cast<double>(activity.total_bytes()) /
                    config.wifi_bandwidth_kbps;
  const DurationMs dur =
      static_cast<DurationMs>(std::llround(std::ceil(ms)));
  return std::clamp<DurationMs>(dur, 1,
                                std::max<DurationMs>(activity.duration, 1));
}

double wifi_offload_saving_j(const NetworkActivity& activity,
                             const ProfitConfig& config) {
  return isolated_activity_energy(activity.duration, config.radio) -
         isolated_activity_energy(wifi_transfer_ms(activity, config),
                                  config.wifi);
}

Instance build_instance(std::span<const Interval> active_slots,
                        std::span<const Interval> wifi_windows,
                        std::span<const NetworkActivity> pending,
                        const mining::SlotPredictor& predictor,
                        const ProfitConfig& config) {
  Instance inst;
  inst.slot_windows = sorted_disjoint(active_slots,
                                      "active slots must be disjoint");
  const std::size_t num_cell = inst.slot_windows.size();
  inst.num_cellular_slots = num_cell;
  for (std::size_t i = 0; i < num_cell; ++i) {
    inst.slots.push_back(
        {static_cast<int>(i),
         slot_capacity_bytes(inst.slot_windows[i], config)});
  }

  // Wi-Fi presence windows become knapsacks of their own, appended
  // after the cellular slots and sized by the WLAN goodput.
  const std::vector<Interval> wifi =
      sorted_disjoint(wifi_windows, "wifi windows must be disjoint");
  for (std::size_t i = 0; i < wifi.size(); ++i) {
    OverlapSlot slot;
    slot.id = static_cast<int>(num_cell + i);
    slot.capacity = static_cast<std::int64_t>(
        config.wifi_bandwidth_kbps * 1000.0 * to_seconds(wifi[i].length()));
    slot.radio = RadioId::kWifi;
    inst.slots.push_back(slot);
    inst.slot_windows.push_back(wifi[i]);
  }
  const std::span<const Interval> cell(inst.slot_windows.data(), num_cell);

  int next_id = 0;
  for (std::size_t a = 0; a < pending.size(); ++a) {
    const NetworkActivity& act = pending[a];
    NM_REQUIRE(act.deferrable, "only deferrable activities are schedulable");

    // Cellular candidates: the adjacent active slots around the
    // arrival. An arrival inside a slot runs for free and is no item.
    const std::size_t after = first_begin_after(cell, act.start);
    const int next_slot = after < num_cell ? static_cast<int>(after) : -1;
    int prev_slot = -1;
    if (after > 0) {
      if (cell[after - 1].end > act.start) continue;  // inside a slot
      prev_slot = static_cast<int>(after - 1);
    }

    // Wi-Fi candidate: the presence window containing the arrival
    // (immediate offload, no deferral) or the next one after it.
    const std::size_t wafter = first_begin_after(wifi, act.start);
    int wifi_slot = -1;
    if (wafter > 0 && wifi[wafter - 1].end > act.start) {
      wifi_slot = static_cast<int>(wafter - 1);
    } else if (wafter < wifi.size()) {
      wifi_slot = static_cast<int>(wafter);
    }

    if (prev_slot < 0 && next_slot < 0 && wifi_slot < 0) {
      inst.unschedulable.push_back(a);
      continue;
    }

    OverlapItem item;
    item.id = next_id++;
    item.weight = act.total_bytes();

    // The paper computes one ΔP per activity (the forward deferral
    // window, Eq. 4) and reuses it for the duplicated copy; fall back
    // to the prefetch window when no following slot exists.
    const int cell_slot = next_slot >= 0 ? next_slot : prev_slot;
    double cell_profit = 0.0;
    if (cell_slot >= 0) {
      const TimeMs anchor = assignment_anchor(
          cell[static_cast<std::size_t>(cell_slot)], act.start);
      cell_profit =
          energy_saving_j(act, config) -
          deferral_penalty_j(act.start, anchor, predictor, config);
    }

    if (wifi_slot < 0) {
      // No Wi-Fi coverage: the paper's single-radio item.
      item.profit = cell_profit;
      item.prev_slot = prev_slot;
      item.next_slot = next_slot;
    } else {
      // Two candidates with their own profits: the paper's forward
      // cellular slot (next if it exists, else the prefetch slot) and
      // the Wi-Fi window. The Eq. 4 deferral penalty applies to the
      // Wi-Fi deferral window the same way it does to a cellular one.
      const TimeMs wifi_anchor = assignment_anchor(
          wifi[static_cast<std::size_t>(wifi_slot)], act.start);
      const double wifi_profit =
          wifi_offload_saving_j(act, config) -
          deferral_penalty_j(act.start, wifi_anchor, predictor, config);
      item.prev_slot = cell_slot;  // may be -1: Wi-Fi-only coverage
      item.next_slot = static_cast<int>(num_cell) + wifi_slot;
      item.profit = cell_slot >= 0 ? cell_profit : wifi_profit;
      if (cell_slot >= 0) item.prev_profit = cell_profit;
      item.next_profit = wifi_profit;
    }
    inst.items.push_back(item);
    inst.item_activity.push_back(a);
  }
  return inst;
}

}  // namespace netmaster::sched
