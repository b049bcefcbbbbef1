#include "sim/accounting.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "engine/radio_timeline.hpp"
#include "engine/trace_index.hpp"
#include "obs/metrics.hpp"

namespace netmaster::sim {

namespace {

/// Folds one activity into the byte totals and peak rates. Peak rate is
/// a channel property of individual transfers; policies shift transfers
/// in time but do not change their rate (the paper makes the same
/// observation about Fig. 7c).
void add_activity(TraceTotals& totals, std::int64_t bytes_down,
                  std::int64_t bytes_up, DurationMs duration) {
  totals.bytes_down += bytes_down;
  totals.bytes_up += bytes_up;
  if (duration <= 0) return;
  const double s = to_seconds(duration);
  totals.peak_down_rate_kbps =
      std::max(totals.peak_down_rate_kbps,
               static_cast<double>(bytes_down) / 1000.0 / s);
  totals.peak_up_rate_kbps =
      std::max(totals.peak_up_rate_kbps,
               static_cast<double>(bytes_up) / 1000.0 / s);
}

/// IntervalSet's point and window queries for a stream of query
/// instants over one canonical interval list. A non-decreasing stream
/// walks one cursor forward, O(n + q) in total; a backwards step
/// (unvalidated traces may hold unsorted usages) re-seeks with the
/// set's own lower_bound, so every answer equals the per-query binary
/// search's whatever the order.
class ForwardCursor {
 public:
  explicit ForwardCursor(const std::vector<Interval>& intervals)
      : iv_(intervals) {}

  /// IntervalSet::contains.
  bool contains(TimeMs t) {
    const std::size_t i = seek(t);
    return i < iv_.size() && iv_[i].begin <= t;
  }

  /// IntervalSet::overlap_length.
  DurationMs overlap_length(TimeMs begin, TimeMs end) {
    if (begin >= end) return 0;
    DurationMs total = 0;
    for (std::size_t i = seek(begin); i < iv_.size() && iv_[i].begin < end;
         ++i) {
      total += intersect(iv_[i], Interval{begin, end}).length();
    }
    return total;
  }

 private:
  /// First interval with end > t.
  std::size_t seek(TimeMs t) {
    if (t < last_) {
      next_ = static_cast<std::size_t>(
          std::lower_bound(iv_.begin(), iv_.end(), t,
                           [](const Interval& i, TimeMs v) {
                             return i.end <= v;
                           }) -
          iv_.begin());
    } else {
      while (next_ < iv_.size() && iv_[next_].end <= t) ++next_;
    }
    last_ = t;
    return next_;
  }

  const std::vector<Interval>& iv_;
  std::size_t next_ = 0;  // first interval with end > last_
  TimeMs last_ = std::numeric_limits<TimeMs>::min();
};

/// Files one executed transfer under its radio's partition. A
/// zero-length cellular transfer runs nothing, so the canonical
/// schedule drops it, yet a data switch still holds the radio up for
/// the grace after it: its window goes to `held` instead.
void partition_transfer(const ExecutedTransfer& t,
                        std::vector<Interval>& cellular,
                        std::vector<Interval>& wifi,
                        std::vector<Interval>& held) {
  const Interval iv{t.start, t.start + t.duration};
  if (t.radio == RadioId::kWifi) {
    wifi.push_back(iv);
  } else if (!iv.empty()) {
    cellular.push_back(iv);
  } else {
    held.push_back({iv.begin, iv.end + kDormancyGraceMs});
  }
}

/// The materializing path: canonicalizes each radio partition once, in
/// the caller's reused storage (handed back on return), integrates the
/// cellular set under the data switch when the policy drives one and
/// the Wi-Fi set on its own machine, and charges the duty wakes. The
/// switch is handed over as the grace and its windows that are not
/// runs: the zero-length transfers' grace windows `held` holds, the
/// outcome's extra windows and the duty wakes, each clamped to
/// [0, horizon) and canonicalized. The integrator chains the executed
/// runs with them as it goes; the allowed set is never built.
void account_canonicalized(std::vector<Interval>& cellular,
                           std::vector<Interval>& wifi,
                           std::vector<Interval>& held,
                           const PolicyOutcome& outcome,
                           const RadioSet& radios, SimReport& report) {
  static obs::Counter& canonicalized =
      obs::Registry::global().counter("sim.account.canonicalized");
  canonicalized.add(1);
  report.wifi_transfer_count = wifi.size();
  IntervalSet executed(std::move(cellular));
  IntervalSet executed_wifi(std::move(wifi));

  const TimeMs horizon = report.horizon_ms;
  const bool switched = outcome.radio_allowed.has_value();
  if (!switched) {
    held.clear();  // no switch for the grace windows to hold open
  } else {
    const std::vector<Interval>& extra = outcome.radio_allowed->intervals();
    held.insert(held.end(), extra.begin(), extra.end());
    for (const duty::WakeEvent& w : outcome.wakes) {
      held.push_back({w.time, w.time + w.window});
    }
    for (Interval& iv : held) {
      iv = {std::max<TimeMs>(iv.begin, 0), std::min(iv.end, horizon)};
    }
  }
  IntervalSet windows(std::move(held));  // drops the clamped-away ones
  const engine::DataSwitch data_switch{kDormancyGraceMs, windows.intervals()};
  report.radio = engine::account_interval_set(
      executed, radios.cellular, horizon, switched ? &data_switch : nullptr);

  // The Wi-Fi interface is not behind the cellular data switch: its
  // PSM tails always run to completion, and every cold attach pays the
  // scan/associate burst the model describes.
  if (!executed_wifi.empty()) {
    report.wifi =
        engine::account_interval_set(executed_wifi, radios.wifi, horizon);
    report.wifi_energy_j = report.wifi.energy_j;
    report.wifi_on_ms = report.wifi.radio_on_ms;
  }

  // Duty-cycle wake overhead: probes run the cellular radio at
  // FACH-level power (network attach, no dedicated channel). Fruitful
  // wakes overlap transfers and are not double-charged: only the
  // non-overlap part of each probe window is added.
  ForwardCursor transfers(executed.intervals());
  for (const duty::WakeEvent& w : outcome.wakes) {
    const DurationMs overlap =
        transfers.overlap_length(w.time, w.time + w.window);
    const DurationMs extra = w.window - overlap;
    report.duty_energy_j +=
        radios.cellular.probe_mw() * static_cast<double>(extra) * 1e-6;
    report.radio_on_ms += extra;
  }

  cellular = std::move(executed).release();
  wifi = std::move(executed_wifi).release();
  held = std::move(windows).release();
}

}  // namespace

TraceTotals trace_totals(const UserTrace& eval) {
  TraceTotals totals;
  totals.horizon_ms = eval.trace_end();
  totals.num_activities = eval.activities.size();
  for (const NetworkActivity& act : eval.activities) {
    add_activity(totals, act.bytes_down, act.bytes_up, act.duration);
  }
  totals.total_usages = eval.usages.size();
  for (const ScreenSession& s : eval.sessions) {
    totals.screen_on_ms += s.length();
  }
  return totals;
}

TraceTotals trace_totals(const engine::TraceIndex& eval) {
  TraceTotals totals;
  totals.horizon_ms = eval.horizon();
  const mem::ActivityColumns& acts = eval.activities();
  totals.num_activities = acts.size();
  const std::span<const std::int64_t> down = acts.bytes_down();
  const std::span<const std::int64_t> up = acts.bytes_up();
  const std::span<const DurationMs> durations = acts.durations();
  for (std::size_t i = 0; i < acts.size(); ++i) {
    add_activity(totals, down[i], up[i], durations[i]);
  }
  totals.total_usages = eval.usages().size();
  const std::span<const TimeMs> begins = eval.sessions().begins();
  const std::span<const TimeMs> ends = eval.sessions().ends();
  for (std::size_t i = 0; i < begins.size(); ++i) {
    totals.screen_on_ms += ends[i] - begins[i];
  }
  return totals;
}

SimReport account(const UserTrace& eval, const PolicyOutcome& outcome,
                  const RadioModel& params) {
  for (const ExecutedTransfer& t : outcome.transfers) {
    NM_REQUIRE(t.radio == RadioId::kCellular,
               "single-radio accounting given a non-cellular transfer");
  }
  RadioSet radios;
  radios.cellular = params;
  return account(eval, outcome, radios);
}

SimReport account(const UserTrace& eval, const PolicyOutcome& outcome,
                  const RadioSet& radios) {
  std::vector<TimeMs> usage_times;
  usage_times.reserve(eval.usages.size());
  for (const AppUsage& u : eval.usages) usage_times.push_back(u.time);
  return account(trace_totals(eval), usage_times, outcome, radios);
}

SimReport account(const TraceTotals& totals,
                  std::span<const TimeMs> usage_times,
                  const PolicyOutcome& outcome, const RadioSet& radios) {
  radios.validate();
  SimReport report;
  report.policy_name = outcome.policy_name;
  report.horizon_ms = totals.horizon_ms;
  report.degraded = outcome.path == ExecutionPath::kDegradedFallback;
  report.degraded_reason = outcome.degraded_reason;
  report.drift_score = outcome.drift_score;
  report.bytes_down = totals.bytes_down;
  report.bytes_up = totals.bytes_up;
  report.peak_down_rate_kbps = totals.peak_down_rate_kbps;
  report.peak_up_rate_kbps = totals.peak_up_rate_kbps;
  report.total_usages = totals.total_usages;
  report.screen_on_ms = totals.screen_on_ms;

  // Consistency: every activity executed exactly once, inside the
  // horizon, checked in transfer order in the same pass that feeds the
  // accountant.
  const std::size_t n = totals.num_activities;
  NM_REQUIRE(outcome.transfers.size() == n,
             "outcome must execute every activity exactly once");
  thread_local std::vector<std::uint64_t> seen;
  seen.assign((n + 63) / 64, 0);
  bool any_wifi = false;
  const auto checked = [&](const ExecutedTransfer& t) {
    NM_REQUIRE(t.activity_index < n,
               "transfer references unknown activity");
    std::uint64_t& word = seen[t.activity_index >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (t.activity_index & 63);
    NM_REQUIRE((word & bit) == 0, "activity executed twice");
    word |= bit;
    NM_REQUIRE(t.start >= 0 && t.start + t.duration <= report.horizon_ms,
               "transfer outside the accounting horizon");
    NM_REQUIRE(t.duration >= 0, "transfer has a negative duration");
    any_wifi |= t.radio == RadioId::kWifi;
    // A Wi-Fi transfer feeds the cellular machine nothing; any_wifi
    // sends the outcome down the partitioning path below.
    return t.radio == RadioId::kWifi ? Interval{}
                                     : Interval{t.start, t.start + t.duration};
  };

  // The stock radio without duty wakes needs only the cellular
  // integrator: an in-order all-cellular schedule (baseline, delay,
  // batch, delay&batch) streams straight into it. A data switch or
  // wakes need the executed set itself, and a Wi-Fi transfer or an
  // out-of-order arrival a canonicalization: those outcomes are
  // partitioned by radio (each interface runs an independent state
  // machine) into reused per-thread storage instead.
  const std::span<const ExecutedTransfer> transfers(outcome.transfers);
  std::size_t unchecked = 0;  // first transfer not yet checked
  bool streamed = false;
  if (!outcome.radio_allowed.has_value() && outcome.wakes.empty()) {
    engine::RrcIntegrator integrator(radios.cellular, report.horizon_ms);
    const std::size_t fed = integrator.add(transfers, checked);
    streamed = fed == n && !any_wifi;
    if (streamed) report.radio = integrator.finish();
    unchecked = std::min(fed + 1, n);  // a refused arrival was checked
  }
  if (!streamed) {
    thread_local std::vector<Interval> cellular;
    thread_local std::vector<Interval> wifi;
    thread_local std::vector<Interval> held;
    cellular.clear();
    wifi.clear();
    held.clear();
    for (std::size_t k = 0; k < unchecked; ++k) {
      partition_transfer(transfers[k], cellular, wifi, held);
    }
    for (std::size_t k = unchecked; k < n; ++k) {
      checked(transfers[k]);
      partition_transfer(transfers[k], cellular, wifi, held);
    }
    account_canonicalized(cellular, wifi, held, outcome, radios, report);
  }
  report.transfer_energy_j = report.radio.energy_j + report.wifi_energy_j;
  report.wake_count = outcome.wakes.size();
  report.radio_on_ms += report.radio.radio_on_ms + report.wifi_on_ms;
  report.energy_j = report.transfer_energy_j + report.duty_energy_j;

  // Bandwidth utilization: achieved bytes per radio-on second.
  const double on_s = to_seconds(report.radio_on_ms);
  if (on_s > 0.0) {
    report.avg_down_rate_kbps =
        static_cast<double>(report.bytes_down) / 1000.0 / on_s;
    report.avg_up_rate_kbps =
        static_cast<double>(report.bytes_up) / 1000.0 / on_s;
  }

  // User experience.
  if (!outcome.blocked.empty()) {
    ForwardCursor blocked(outcome.blocked.intervals());
    for (const TimeMs t : usage_times) {
      report.affected_usages += blocked.contains(t);
    }
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
    for (double v : outcome.deferral_latency_s) sum += v;
    report.mean_deferral_latency_s =
        sum / static_cast<double>(report.deferred_count);
  }
  return report;
}

}  // namespace netmaster::sim
