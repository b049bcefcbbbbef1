// Accounting: PolicyOutcome -> SimReport.
//
// Applies the RRC power model to the executed transfer schedule, adds
// duty-cycle wake overhead, and computes the evaluation metrics of §VI:
// radio energy, radio-on time, achieved bandwidth (bytes per radio-on
// second, the paper's "bandwidth utilization"), peak rates, affected
// user interactions, and deferral latency.
//
// Only part of that work depends on the policy. A schedule moves
// transfers in time but runs each activity exactly once (the accountant
// checks it), so the horizon, the byte totals, the peak rates and the
// screen/usage context are properties of the trace alone: TraceTotals
// holds them, computed once per user (eval::EvalSession keeps them next
// to the baseline report), and the accounting core does only the
// per-outcome work — validation, the RRC integration and the
// affected-usage count. An in-order, all-cellular, stock-radio outcome
// without duty wakes streams from the validation pass straight into
// engine::RrcIntegrator; any other outcome is partitioned and
// canonicalized once in reused per-thread storage first (counted in
// `sim.account.canonicalized`). For an outcome that drives the data
// switch, the accountant builds no allowed set: it hands the integrator
// sim::kDormancyGraceMs and one canonical list of the switch's windows
// that are not runs (zero-length cellular transfers' grace windows, the
// policy's extra windows and the duty wakes, clamped to the horizon),
// and the integrator derives each tail cut from the runs it has
// integrated so far, each held open for the grace.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "power/radio_model.hpp"
#include "sim/outcome.hpp"
#include "trace/trace.hpp"

namespace netmaster::engine {
class TraceIndex;
}  // namespace netmaster::engine

namespace netmaster::sim {

/// The policy-invariant fields of a SimReport for one evaluation trace.
struct TraceTotals {
  DurationMs horizon_ms = 0;
  std::size_t num_activities = 0;
  std::int64_t bytes_down = 0;
  std::int64_t bytes_up = 0;
  double peak_down_rate_kbps = 0.0;  ///< best single-activity rate
  double peak_up_rate_kbps = 0.0;
  std::size_t total_usages = 0;
  DurationMs screen_on_ms = 0;
};

/// Totals of a trace, or of the same trace's index records; both give
/// bit-identical results.
TraceTotals trace_totals(const UserTrace& eval);
TraceTotals trace_totals(const engine::TraceIndex& eval);

/// All §VI metrics for one (trace, policy) run.
struct SimReport {
  std::string policy_name;

  // Energy / radio time.
  double energy_j = 0.0;          ///< transfers + duty overhead
  double transfer_energy_j = 0.0; ///< transfer trajectory energy only
  double duty_energy_j = 0.0;     ///< wake-probe overhead
  DurationMs radio_on_ms = 0;     ///< non-IDLE time incl. wake probes
  RadioAccounting radio;          ///< cellular RRC breakdown
  std::size_t wake_count = 0;

  // Multi-radio breakdown. When the policy assigned transfers to the
  // Wi-Fi interface, its independent state machine is accounted here
  // (no data-switch restriction — the AP association is not behind
  // `svc data disable`) and summed into energy_j / radio_on_ms.
  // All-cellular outcomes leave these exactly zero.
  double wifi_energy_j = 0.0;
  DurationMs wifi_on_ms = 0;
  RadioAccounting wifi;           ///< Wi-Fi PSM breakdown
  std::size_t wifi_transfer_count = 0;

  // Traffic.
  std::int64_t bytes_down = 0;
  std::int64_t bytes_up = 0;
  double avg_down_rate_kbps = 0.0;  ///< bytes_down / radio-on seconds
  double avg_up_rate_kbps = 0.0;
  double peak_down_rate_kbps = 0.0;  ///< best single-activity rate
  double peak_up_rate_kbps = 0.0;

  // User experience.
  std::size_t total_usages = 0;
  std::size_t affected_usages = 0;  ///< usages in blocked windows
  std::size_t interrupts = 0;       ///< explicit wrong decisions
  double affected_fraction = 0.0;   ///< (affected + interrupts) / total
  double mean_deferral_latency_s = 0.0;
  std::size_t deferred_count = 0;

  // Context.
  DurationMs horizon_ms = 0;
  DurationMs screen_on_ms = 0;

  // Degradation provenance (copied from the outcome).
  bool degraded = false;        ///< fallback path produced this run
  std::string degraded_reason;  ///< empty unless degraded
  double drift_score = 0.0;     ///< the outcome's drift_score
};

/// The accounting core: `totals` and `usages` (in any order) describe
/// the evaluation trace. Transfers are
/// validated in order, each interface's state machine is integrated
/// independently — the cellular partition under
/// the policy's data switch, the Wi-Fi partition with free-running PSM
/// tails and per-cold-attach association costs. Outcomes with no Wi-Fi
/// transfers reproduce the single-radio report bit for bit. Throws
/// netmaster::Error when the outcome is inconsistent with the trace
/// (missing/duplicate/unknown activities, transfers beyond the
/// horizon or with a negative duration).
SimReport account(const TraceTotals& totals,
                  std::span<const AppUsage> usages,
                  const PolicyOutcome& outcome, const RadioSet& radios);

/// Runs the accountant for a single-radio (cellular-only) outcome.
/// Throws netmaster::Error when the outcome is inconsistent with the
/// trace (missing/duplicate activities, transfers beyond the horizon)
/// or assigns any transfer to a non-cellular radio. RadioPowerParams
/// converts implicitly, so legacy call sites are unchanged.
SimReport account(const UserTrace& eval, const PolicyOutcome& outcome,
                  const RadioModel& params);

/// Multi-radio accountant over a trace: the core above, fed with the
/// trace's totals and usages.
SimReport account(const UserTrace& eval, const PolicyOutcome& outcome,
                  const RadioSet& radios);

}  // namespace netmaster::sim
