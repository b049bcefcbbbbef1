// Profit model and scheduling-instance construction (§IV-A step 3).
//
// Bridges the mined predictions and the radio power model to the
// abstract overlapped-knapsack solver:
//   - ΔE(n)  = isolated radio energy of the activity minus its marginal
//              cost when piggybacked into an already-on radio period
//              (the paper's g function over the RRC model),
//   - ΔP(n)  = Eq. 4: the et-scaled product of the deferral window
//              length and the integral of Pr[u(t)] across it,
//   - C(ti)  = Eq. 5: carrier bandwidth times the slot length.
//
// One builder, `build_instance`, turns the predicted user-active slots
// and Wi-Fi presence windows into the instance Algorithm 1 solves.
// Items are built per activity with candidate slots = the adjacent
// predicted user-active slots; the paper's convention computes ΔP (and
// hence the item profit) once, for the forward deferral window, and
// reuses it for the duplicated copy. With no Wi-Fi windows the
// instance is exactly the paper's single-radio one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "mining/habits.hpp"
#include "power/radio_model.hpp"
#include "sched/overlap.hpp"
#include "trace/trace.hpp"

namespace netmaster::sched {

/// Parameters of the profit/penalty/capacity model.
struct ProfitConfig {
  /// Cellular radio model (the paper's two-tail WCDMA machine by
  /// default; RadioPowerParams converts implicitly, so call sites may
  /// still assign the compact parameterisation).
  RadioModel radio = RadioModel::wcdma();
  /// Eq. 4 scaling factor, converting (window seconds × probability
  /// seconds) into joules. Chosen so a deferral of ~30 min across a
  /// Pr=0.5 region roughly cancels one activity's tail saving.
  double et_j_per_s2 = 2e-6;
  /// Eq. 5 average carrier bandwidth in kB/s (WCDMA-era figure).
  double bandwidth_kbps = 25.0;

  // Multi-radio co-scheduling (used only when Wi-Fi windows are given).
  /// Wi-Fi interface model, accounted independently of the cellular
  /// data switch.
  RadioModel wifi = RadioModel::wifi();
  /// Achievable WLAN goodput in kB/s — an order of magnitude above the
  /// WCDMA-era carrier figure, which is exactly why offloading a long
  /// streaming flow is profitable despite the association cost.
  double wifi_bandwidth_kbps = 400.0;
};

/// Energy the policy saves by absorbing this activity into a slot where
/// the radio is on anyway: the isolated-cost/piggyback-cost difference.
double energy_saving_j(const NetworkActivity& activity,
                       const ProfitConfig& config);

/// Eq. 4 penalty for deferring an activity at `from` to slot anchor
/// `to` (from <= to or to <= from, both directions are charged by
/// window length).
double deferral_penalty_j(TimeMs from, TimeMs to,
                          const mining::SlotPredictor& predictor,
                          const ProfitConfig& config);

/// Eq. 5 slot capacity in bytes.
std::int64_t slot_capacity_bytes(const Interval& slot,
                                 const ProfitConfig& config);

/// A fully-built scheduling instance for one horizon.
struct Instance {
  std::vector<OverlapSlot> slots;
  std::vector<Interval> slot_windows;   ///< parallel to slots
  std::vector<OverlapItem> items;
  /// items[i] corresponds to pending[item_activity[i]] in the builder's
  /// input span.
  std::vector<std::size_t> item_activity;
  /// Activities that were not schedulable (no adjacent slot).
  std::vector<std::size_t> unschedulable;
  /// Slots [0, num_cellular_slots) are predicted user-active (cellular)
  /// slots; anything after are Wi-Fi presence windows.
  std::size_t num_cellular_slots = 0;
};

/// The anchor time at which an activity assigned to a slot executes:
/// the slot's end for a preceding slot (latest prefetch moment) and the
/// slot's begin for a following slot (earliest deferral moment) —
/// minimizing the deferral window either way.
TimeMs assignment_anchor(const Interval& slot, TimeMs activity_time);

/// Executed duration of an activity offloaded to Wi-Fi: the same bytes
/// at the WLAN goodput, never slower than the cellular execution and
/// never shorter than one tick.
DurationMs wifi_transfer_ms(const NetworkActivity& activity,
                            const ProfitConfig& config);

/// Radio-selection profit term: energy saved by carrying the activity
/// on Wi-Fi instead of an isolated cellular transfer — the cellular
/// isolated cost (promotion + transfer + full tail) minus the isolated
/// Wi-Fi cost of the same bytes (scan/associate + the shorter WLAN
/// transfer + PSM tail). Can be negative for tiny transfers whose
/// association burst outweighs the cellular tail.
double wifi_offload_saving_j(const NetworkActivity& activity,
                             const ProfitConfig& config);

/// Builds the overlapped-knapsack instance: one knapsack per predicted
/// user-active slot, then one per predicted Wi-Fi presence window
/// (tagged RadioId::kWifi, capacity from the WLAN goodput), and one item
/// per pending deferrable activity. An activity's cellular candidates
/// are the nearest active slots before and after it; activities already
/// inside an active slot are excluded (they run for free) and reported
/// in neither list. When a Wi-Fi window contains or next follows the
/// arrival, the item instead gets two candidates with their own profits
/// (per-candidate overrides on the OverlapItem): its forward cellular
/// slot (the paper's anchor convention; none when no slot exists) and
/// that window. Activities with no candidate at all are unschedulable.
Instance build_instance(std::span<const Interval> active_slots,
                        std::span<const Interval> wifi_windows,
                        std::span<const NetworkActivity> pending,
                        const mining::SlotPredictor& predictor,
                        const ProfitConfig& config);

}  // namespace netmaster::sched
