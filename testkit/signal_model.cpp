#include "testkit/signal_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace netmaster::channel {

namespace {

/// Diurnal quality offset: best in the small hours, dipping through
/// commute and office hours.
double diurnal_shape(TimeMs t) {
  const double hour = static_cast<double>(time_of_day(t)) /
                      static_cast<double>(kMsPerHour);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  // Minimum around 18:00, maximum around 04:00 local.
  return std::cos(kTwoPi * (hour - 4.0) / 24.0);
}

}  // namespace

void SignalConfig::validate() const {
  NM_REQUIRE(base_quality >= 0.0 && base_quality <= 1.0,
             "base quality must be in [0,1]");
  NM_REQUIRE(diurnal_amplitude >= 0.0 && noise_sigma >= 0.0,
             "amplitudes must be non-negative");
  NM_REQUIRE(coherence_ms > 0, "coherence time must be positive");
}

SignalTrace SignalTrace::generate(const SignalConfig& config,
                                  TimeMs horizon) {
  config.validate();
  NM_REQUIRE(horizon > 0, "horizon must be positive");

  SignalTrace trace;
  trace.horizon_ = horizon;
  trace.coherence_ = config.coherence_ms;
  const auto segments = static_cast<std::size_t>(
      (horizon + config.coherence_ms - 1) / config.coherence_ms);
  trace.segments_.reserve(segments);

  Rng rng(derive_seed(config.seed, 0x516AA1));
  // AR(1) slow fading so adjacent segments correlate.
  double fading = 0.0;
  constexpr double kRho = 0.8;
  for (std::size_t s = 0; s < segments; ++s) {
    const TimeMs mid = static_cast<TimeMs>(s) * config.coherence_ms +
                       config.coherence_ms / 2;
    fading = kRho * fading +
             std::sqrt(1.0 - kRho * kRho) *
                 rng.normal(0.0, config.noise_sigma);
    const double q = config.base_quality +
                     config.diurnal_amplitude * diurnal_shape(mid) +
                     fading;
    trace.segments_.push_back(std::clamp(q, 0.0, 1.0));
  }
  return trace;
}

double SignalTrace::quality_at(TimeMs t) const {
  NM_REQUIRE(t >= 0 && t < horizon_, "time outside the signal trace");
  const auto idx = static_cast<std::size_t>(t / coherence_);
  return segments_[std::min(idx, segments_.size() - 1)];
}

double SignalTrace::mean_quality(TimeMs begin, TimeMs end) const {
  NM_REQUIRE(begin >= 0 && end <= horizon_ && begin <= end,
             "window outside the signal trace");
  if (begin == end) return quality_at(std::min(begin, horizon_ - 1));
  double weighted = 0.0;
  TimeMs t = begin;
  while (t < end) {
    const TimeMs seg_end =
        std::min<TimeMs>((t / coherence_ + 1) * coherence_, end);
    weighted += quality_at(t) * static_cast<double>(seg_end - t);
    t = seg_end;
  }
  return weighted / static_cast<double>(end - begin);
}

double SignalTrace::power_multiplier(double quality) {
  NM_REQUIRE(quality >= 0.0 && quality <= 1.0,
             "quality must be in [0,1]");
  // 1x at quality 1, 3.5x at quality 0 (convex: the edge hurts most).
  return 1.0 + 2.5 * (1.0 - quality) * (1.0 - quality);
}

double SignalTrace::rate_multiplier(double quality) {
  NM_REQUIRE(quality >= 0.0 && quality <= 1.0,
             "quality must be in [0,1]");
  return 0.25 + 0.75 * quality;
}

double signal_energy_penalty_j(
    const std::vector<sim::ExecutedTransfer>& transfers,
    const SignalTrace& signal, const RadioModel& model) {
  double penalty = 0.0;
  for (const sim::ExecutedTransfer& t : transfers) {
    if (t.duration <= 0) continue;
    const double q = signal.mean_quality(
        t.start, std::min(t.start + t.duration, signal.horizon()));
    const double mult = SignalTrace::power_multiplier(q);
    penalty += model.active_mw * static_cast<double>(t.duration) * 1e-6 *
               (mult - 1.0);
  }
  return penalty;
}

std::size_t apply_channel_awareness(sim::PolicyOutcome& outcome,
                                    const UserTrace& eval,
                                    const SignalTrace& signal,
                                    DurationMs window_ms,
                                    const RadioModel& model) {
  NM_REQUIRE(window_ms >= 0, "window must be non-negative");
  model.validate();
  const TimeMs horizon = eval.trace_end();
  NM_REQUIRE(signal.horizon() >= horizon,
             "signal trace must cover the evaluation horizon");
  if (window_ms == 0) return 0;

  // Order transfers by executed start and cut them into batches:
  // consecutive transfers whose gap is below a promotion + dormancy
  // grace share one radio power-up.
  std::vector<std::size_t> order(outcome.transfers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return outcome.transfers[a].start < outcome.transfers[b].start;
  });
  const DurationMs reach = model.promo_idle_ms + 3000;

  // Per-batch signal-power cost of a shift delta.
  const auto batch_cost = [&](const std::vector<std::size_t>& batch,
                              DurationMs delta) {
    double cost = 0.0;
    for (std::size_t i : batch) {
      const sim::ExecutedTransfer& t = outcome.transfers[i];
      const TimeMs begin = t.start + delta;
      const double q = signal.mean_quality(
          begin, std::min<TimeMs>(begin + t.duration, horizon));
      cost += model.active_mw * static_cast<double>(t.duration) * 1e-6 *
              SignalTrace::power_multiplier(q);
    }
    return cost;
  };

  std::size_t moved = 0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    // Collect one batch.
    std::vector<std::size_t> batch{order[pos]};
    TimeMs batch_end = outcome.transfers[order[pos]].start +
                       outcome.transfers[order[pos]].duration;
    std::size_t next = pos + 1;
    while (next < order.size() &&
           outcome.transfers[order[next]].start <= batch_end + reach) {
      batch.push_back(order[next]);
      batch_end = std::max<TimeMs>(
          batch_end, outcome.transfers[order[next]].start +
                         outcome.transfers[order[next]].duration);
      ++next;
    }
    pos = next;

    // Only batches made purely of policy-deferred transfers may move
    // (an in-place member pins the batch: it is user-driven or a
    // real-time release).
    bool movable = true;
    TimeMs min_delta = -window_ms;  // earliest allowed shift
    TimeMs max_delta = window_ms;
    for (std::size_t i : batch) {
      const sim::ExecutedTransfer& t = outcome.transfers[i];
      const NetworkActivity& act = eval.activities[t.activity_index];
      if (t.start == act.start) {
        movable = false;
        break;
      }
      if (t.start > act.start) {
        // Forward deferral: never move before the arrival.
        min_delta = std::max<TimeMs>(min_delta, act.start - t.start);
      }
      min_delta = std::max<TimeMs>(min_delta, -t.start);
      max_delta = std::min<TimeMs>(
          max_delta, horizon - (t.start + t.duration));
    }
    if (!movable || batch.empty() || min_delta > max_delta) continue;

    // Scan candidate shifts on the signal's coherence grid.
    const double current = batch_cost(batch, 0);
    double best_cost = current;
    DurationMs best_delta = 0;
    const DurationMs step = signal.coherence();
    for (DurationMs delta = (min_delta / step) * step; delta <= max_delta;
         delta += step) {
      const DurationMs d = std::clamp(delta, min_delta, max_delta);
      const double cost = batch_cost(batch, d);
      if (cost < best_cost - 1e-9) {
        best_cost = cost;
        best_delta = d;
      }
    }
    // Shift only for a meaningful gain (> 2% of the batch's cost).
    if (best_delta != 0 && best_cost < current * 0.98) {
      for (std::size_t i : batch) {
        sim::ExecutedTransfer& t = outcome.transfers[i];
        t.start += best_delta;
        ++moved;
      }
    }
  }
  return moved;
}

}  // namespace netmaster::channel
