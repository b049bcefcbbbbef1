// The fully materializing reference accountant, kept as a test oracle.
//
// sim::account streams in-order stock-radio schedules through one
// RrcIntegrator and canonicalizes the rest into reused storage. This is
// the straightforward construction it must reproduce bit for bit:
// partition the transfers into fresh vectors, build each radio's
// IntervalSet, build the data switch's allowed set window by window the
// way the policies once did (each cellular transfer extended by the
// dormancy grace, the policy's extra windows, the duty wakes, each
// clamped to the horizon), integrate with the transfer-by-transfer
// reference (account_transfers.hpp), and answer every wake overlap and
// blocked usage with its own binary search. Same checks, same messages,
// same order. Nothing outside tests/ calls it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/interval.hpp"
#include "account_transfers.hpp"
#include "sim/accounting.hpp"

namespace netmaster::oracles {

/// The data switch's allowed set, window by window, as the policies
/// once built it: each cellular transfer extended by the dormancy
/// grace, then the outcome's extra windows and the duty wakes, each
/// clamped to [0, horizon) and added in turn.
inline IntervalSet per_transfer_allowed(const sim::PolicyOutcome& outcome,
                                        TimeMs horizon) {
  NM_REQUIRE(horizon >= 0, "data-switch horizon must be non-negative");
  IntervalSet allowed;
  const auto allow = [&](TimeMs begin, TimeMs end) {
    allowed.add(std::max<TimeMs>(begin, 0), std::min(end, horizon));
  };
  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    if (t.radio == RadioId::kWifi) continue;
    allow(t.start, t.start + t.duration + sim::kDormancyGraceMs);
  }
  if (outcome.radio_allowed.has_value()) {
    for (const Interval& iv : outcome.radio_allowed->intervals()) {
      allow(iv.begin, iv.end);
    }
  }
  for (const duty::WakeEvent& w : outcome.wakes) {
    allow(w.time, w.time + w.window);
  }
  return allowed;
}

inline sim::SimReport account_outcome(const sim::TraceTotals& totals,
                                      std::span<const TimeMs> usage_times,
                                      const sim::PolicyOutcome& outcome,
                                      const RadioSet& radios) {
  radios.validate();
  sim::SimReport report;
  report.policy_name = outcome.policy_name;
  report.horizon_ms = totals.horizon_ms;
  report.degraded = outcome.path == sim::ExecutionPath::kDegradedFallback;
  report.degraded_reason = outcome.degraded_reason;
  report.drift_score = outcome.drift_score;
  report.bytes_down = totals.bytes_down;
  report.bytes_up = totals.bytes_up;
  report.peak_down_rate_kbps = totals.peak_down_rate_kbps;
  report.peak_up_rate_kbps = totals.peak_up_rate_kbps;
  report.total_usages = totals.total_usages;
  report.screen_on_ms = totals.screen_on_ms;

  const std::size_t n = totals.num_activities;
  NM_REQUIRE(outcome.transfers.size() == n,
             "outcome must execute every activity exactly once");
  std::vector<bool> seen(n, false);
  std::vector<Interval> cellular;
  std::vector<Interval> wifi;
  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    NM_REQUIRE(t.activity_index < n,
               "transfer references unknown activity");
    NM_REQUIRE(!seen[t.activity_index], "activity executed twice");
    seen[t.activity_index] = true;
    NM_REQUIRE(t.start >= 0 && t.start + t.duration <= report.horizon_ms,
               "transfer outside the accounting horizon");
    NM_REQUIRE(t.duration >= 0, "transfer has a negative duration");
    (t.radio == RadioId::kWifi ? wifi : cellular)
        .push_back({t.start, t.start + t.duration});
  }
  report.wifi_transfer_count = wifi.size();
  const IntervalSet executed(std::move(cellular));
  const IntervalSet executed_wifi(std::move(wifi));

  if (outcome.radio_allowed.has_value()) {
    const IntervalSet allowed =
        per_transfer_allowed(outcome, report.horizon_ms);
    report.radio = account_transfers(executed, radios.cellular,
                                     report.horizon_ms, &allowed);
  } else {
    report.radio =
        account_transfers(executed, radios.cellular, report.horizon_ms);
  }
  if (!executed_wifi.empty()) {
    report.wifi =
        account_transfers(executed_wifi, radios.wifi, report.horizon_ms);
    report.wifi_energy_j = report.wifi.energy_j;
    report.wifi_on_ms = report.wifi.radio_on_ms;
  }
  report.transfer_energy_j = report.radio.energy_j + report.wifi_energy_j;

  for (const duty::WakeEvent& w : outcome.wakes) {
    const DurationMs extra =
        w.window - executed.overlap_length(w.time, w.time + w.window);
    report.duty_energy_j +=
        radios.cellular.probe_mw() * static_cast<double>(extra) * 1e-6;
    report.radio_on_ms += extra;
  }
  report.wake_count = outcome.wakes.size();
  report.radio_on_ms += report.radio.radio_on_ms + report.wifi_on_ms;
  report.energy_j = report.transfer_energy_j + report.duty_energy_j;

  const double on_s = to_seconds(report.radio_on_ms);
  if (on_s > 0.0) {
    report.avg_down_rate_kbps =
        static_cast<double>(report.bytes_down) / 1000.0 / on_s;
    report.avg_up_rate_kbps =
        static_cast<double>(report.bytes_up) / 1000.0 / on_s;
  }

  for (const TimeMs t : usage_times) {
    report.affected_usages += outcome.blocked.contains(t);
  }
  report.interrupts = outcome.interrupts;
  if (report.total_usages > 0) {
    report.affected_fraction =
        static_cast<double>(report.affected_usages + report.interrupts) /
        static_cast<double>(report.total_usages);
  }
  report.deferred_count = outcome.deferral_latency_s.size();
  if (report.deferred_count > 0) {
    double sum = 0.0;
    for (const double v : outcome.deferral_latency_s) sum += v;
    report.mean_deferral_latency_s =
        sum / static_cast<double>(report.deferred_count);
  }
  return report;
}

}  // namespace netmaster::oracles
