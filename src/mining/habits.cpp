#include "mining/habits.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "fault/sanitize.hpp"
#include "obs/metrics.hpp"

namespace netmaster::mining {

double slot_confidence(double k, double p) {
  const double stderr_p = std::sqrt(p * (1.0 - p) / k);
  double c = std::clamp(k / (k + 1.0) * (1.0 - stderr_p), 0.0, 1.0);
  if (k <= 1.0) c *= kSingleDayRegimePenalty;
  return c;
}

HabitModel HabitModel::mine(const UserTrace& history) {
  // A valid trace is a fixed point of sanitize_trace with quality 1.0:
  // validation already demands sorted, disjoint, in-horizon, in-range
  // records, so the repair would drop, clamp, re-sort and merge nothing.
  // Fold its buckets straight from the trace — no copy, no index.
  if (history.first_violation() == nullptr) {
    static obs::Counter& direct =
        obs::Registry::global().counter("mining.mine.direct");
    direct.add(1);
    std::vector<engine::TraceIndex::HourBucket> buckets(
        static_cast<std::size_t>(history.num_days) * kHoursPerDay);
    engine::TraceIndex::fold_buckets(history, buckets);
    return fold(buckets, history.app_names.size(), 0, history.num_days);
  }
  const fault::SanitizeResult repaired = fault::sanitize_trace(history);
  HabitModel model = mine(engine::TraceIndex(repaired.trace));
  model.data_quality_ = repaired.report.quality();
  return model;
}

HabitModel HabitModel::mine(const engine::TraceIndex& history) {
  return mine(history, 0, history.num_days());
}

HabitModel HabitModel::mine(const engine::TraceIndex& history,
                            int first_day, int last_day) {
  NM_REQUIRE(first_day >= 0 && first_day <= last_day &&
                 last_day <= history.num_days(),
             "mining window out of range");
  return fold(history.buckets(), history.num_apps(), first_day, last_day);
}

HabitModel HabitModel::fold(
    std::span<const engine::TraceIndex::HourBucket> buckets,
    std::size_t num_apps, int first_day, int last_day) {
  HabitModel model;

  // The per-(day, hour) buckets hold exactly the occupancy flags and
  // accumulators Eqs. 2–3 need; fold them into the two day regimes.
  // Eq. 3 counts (app, day) pairs: the bucket's distinct-app count over
  // the denominator m*k honours that.
  for (int d = first_day; d < last_day; ++d) {
    auto& s = model.stats_[static_cast<std::size_t>(day_kind(d))];
    ++s.days_observed;
    for (int h = 0; h < kHoursPerDay; ++h) {
      const engine::TraceIndex::HourBucket& bucket =
          buckets[static_cast<std::size_t>(d) * kHoursPerDay +
                  static_cast<std::size_t>(h)];
      if (bucket.usage_count > 0) s.pr_active[h] += 1.0;
      s.mean_intensity[h] += bucket.usage_count;
      s.mean_net_count[h] += bucket.net_count;
      s.mean_net_bytes[h] += bucket.net_bytes;
      if (num_apps > 0) {
        s.pr_net[h] += static_cast<double>(bucket.distinct_net_apps) /
                       static_cast<double>(num_apps);
      }
    }
  }

  for (auto& s : model.stats_) {
    if (s.days_observed == 0) continue;  // confidence stays all-zero
    const auto k = static_cast<double>(s.days_observed);
    for (int h = 0; h < kHoursPerDay; ++h) {
      s.pr_active[h] /= k;
      s.pr_net[h] /= k;
      s.mean_intensity[h] /= k;
      s.mean_net_count[h] /= k;
      s.mean_net_bytes[h] /= k;
      s.confidence[h] = slot_confidence(k, s.pr_active[h]);
    }
  }
  return model;
}

void HabitModel::scale_confidence(double factor) {
  NM_REQUIRE(std::isfinite(factor) && factor >= 0.0 && factor <= 1.0,
             "confidence scale must be in [0, 1]");
  data_quality_ *= factor;
}

double HabitModel::confidence(DayKind kind, int hour) const {
  NM_REQUIRE(hour >= 0 && hour < kHoursPerDay, "hour out of range");
  return stats_[static_cast<std::size_t>(kind)].confidence[hour] *
         data_quality_;
}

double HabitModel::overall_confidence() const {
  double weighted = 0.0;
  int total_days = 0;
  for (const auto& s : stats_) {
    if (s.days_observed == 0) continue;
    double sum = 0.0;
    for (int h = 0; h < kHoursPerDay; ++h) sum += s.confidence[h];
    weighted += sum / kHoursPerDay * s.days_observed;
    total_days += s.days_observed;
  }
  if (total_days == 0) return 0.0;
  return weighted / total_days * data_quality_;
}

double HabitModel::pr_active_at(TimeMs t) const {
  NM_REQUIRE(t >= 0, "time must be non-negative");
  return pr_active(day_kind(day_of(t)), hour_of(t));
}

double HabitModel::pr_active(DayKind kind, int hour) const {
  NM_REQUIRE(hour >= 0 && hour < kHoursPerDay, "hour out of range");
  return stats_[static_cast<std::size_t>(kind)].pr_active[hour];
}

SlotPredictor::SlotPredictor(HabitModel model, PredictorConfig config)
    : model_(std::move(model)), config_(config) {
  NM_REQUIRE(config.delta_weekday >= 0.0 && config.delta_weekday <= 1.0,
             "delta_weekday must be a probability");
  NM_REQUIRE(config.delta_weekend >= 0.0 && config.delta_weekend <= 1.0,
             "delta_weekend must be a probability");
}

double SlotPredictor::delta_for_day(int day) const {
  return is_weekend(day) ? config_.delta_weekend : config_.delta_weekday;
}

DayPrediction SlotPredictor::predict_day(int day) const {
  NM_REQUIRE(day >= 0, "day must be non-negative");
  DayPrediction pred;
  pred.day = day;
  const DayKind kind = day_kind(day);
  const HourStats& s = model_.stats(kind);
  const double delta = delta_for_day(day);

  for (int h = 0; h < kHoursPerDay; ++h) {
    const TimeMs begin = hour_start(day, h);
    const TimeMs end = begin + kMsPerHour;
    // Eq. 2: active when Pr[u] exceeds the threshold. The paper's
    // impact-based rule sets thr(u) so that Pr[u] in every *inactive*
    // slot stays at or below δ, i.e. thr(u) is the smallest value
    // strictly above δ — "Pr[u] > δ" implements exactly that.
    if (s.pr_active[h] > delta) {
      pred.active_slots.add(begin, end);  // adjacent hours auto-merge
    } else if (s.pr_net[h] > 0.0) {
      // Eq. 3 restricted to ti ∉ U.
      pred.net_slots.add(begin, end);
    }
  }
  return pred;
}

bool SlotPredictor::is_predicted_active(TimeMs t) const {
  const HourStats& s = model_.stats(day_kind(day_of(t)));
  return s.pr_active[static_cast<std::size_t>(hour_of(t))] >
         delta_for_day(day_of(t));
}

IntervalSet SlotPredictor::presence_windows(int day,
                                            double min_probability) const {
  NM_REQUIRE(day >= 0, "day must be non-negative");
  NM_REQUIRE(min_probability >= 0.0 && min_probability <= 1.0,
             "min_probability must be a probability");
  IntervalSet windows;
  const HourStats& s = model_.stats(day_kind(day));
  for (int h = 0; h < kHoursPerDay; ++h) {
    if (s.pr_active[h] >= min_probability) {
      const TimeMs begin = hour_start(day, h);
      windows.add(begin, begin + kMsPerHour);  // adjacent hours auto-merge
    }
  }
  return windows;
}

double SlotPredictor::active_probability_integral(TimeMs from,
                                                  TimeMs to) const {
  NM_REQUIRE(from >= 0 && to >= from, "integral bounds must be ordered");
  double integral = 0.0;
  TimeMs t = from;
  while (t < to) {
    // Advance to the next hour boundary (or `to`, whichever first).
    const TimeMs hour_end =
        (t / kMsPerHour + 1) * kMsPerHour;
    const TimeMs seg_end = std::min(hour_end, to);
    integral += model_.pr_active_at(t) * to_seconds(seg_end - t);
    t = seg_end;
  }
  return integral;
}

double prediction_accuracy(const SlotPredictor& predictor,
                           const UserTrace& eval) {
  if (eval.usages.empty()) return 1.0;
  std::size_t inside = 0;
  for (const AppUsage& u : eval.usages) {
    if (predictor.is_predicted_active(u.time)) ++inside;
  }
  return static_cast<double>(inside) /
         static_cast<double>(eval.usages.size());
}

}  // namespace netmaster::mining
