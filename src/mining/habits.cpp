#include "mining/habits.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "fault/sanitize.hpp"
#include "mining/incremental.hpp"
#include "obs/metrics.hpp"

namespace netmaster::mining {

double slot_confidence(double k, double p) {
  const double stderr_p = std::sqrt(p * (1.0 - p) / k);
  double c = std::clamp(k / (k + 1.0) * (1.0 - stderr_p), 0.0, 1.0);
  if (k <= 1.0) c *= kSingleDayRegimePenalty;
  return c;
}

namespace {

/// The bucket fold riding on UserTrace::visit_valid's checks; returns
/// the first violation (the partial fold is then garbage). `on_usage` /
/// `on_activity` see each record the fold counts, so mine_habits'
/// special-app evidence shares the pass. Validation demands sorted,
/// disjoint, in-horizon, in-range records, so a forward session cursor
/// answers every screen query, and one hour's activities arrive
/// together, so a per-app stamp of the last bucket it was counted in
/// replaces a per-(bucket, app) seen set.
template <typename OnUsage, typename OnActivity>
const char* fold_valid(const UserTrace& t, std::span<HourBucket> buckets,
                       OnUsage&& on_usage, OnActivity&& on_activity) {
  constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);
  std::vector<std::size_t> counted_in(t.app_names.size(), kNoBucket);
  std::size_t next_session = 0;  // first session ending after the last start
  const auto fold_usage = [&](const AppUsage& u) {
    ++buckets[static_cast<std::size_t>(u.time / kMsPerHour)].usage_count;
    on_usage(u);
  };
  const auto fold_activity = [&](const NetworkActivity& n) {
    on_activity(n);
    while (next_session < t.sessions.size() &&
           t.sessions[next_session].end <= n.start) {
      ++next_session;
    }
    if (next_session < t.sessions.size() &&
        t.sessions[next_session].begin <= n.start) {
      return;  // screen-on: not part of Eq. 3
    }
    const auto b = static_cast<std::size_t>(n.start / kMsPerHour);
    HourBucket& bucket = buckets[b];
    ++bucket.net_count;
    bucket.net_bytes += static_cast<double>(n.total_bytes());
    const auto app = static_cast<std::size_t>(n.app);
    if (counted_in[app] != b) {
      counted_in[app] = b;
      ++bucket.distinct_net_apps;
    }
  };
  return t.visit_valid(fold_usage, fold_activity);
}

/// Zeroed buckets for `t`, or none when its day count is out of range
/// (visit_valid rejects it; checking first bounds the allocation).
HourBuckets sized_buckets(const UserTrace& t) {
  HourBuckets out;
  out.num_apps = t.app_names.size();
  if (t.num_days > 0 && t.num_days <= kMaxTraceDays) {
    out.cells.resize(static_cast<std::size_t>(t.num_days) * kHoursPerDay);
  }
  return out;
}

}  // namespace

std::span<const HourBucket, kHoursPerDay> HourBuckets::day(int day) const {
  NM_REQUIRE(day >= 0 && day < num_days(), "bucket day out of range");
  return std::span<const HourBucket>(cells)
      .subspan(static_cast<std::size_t>(day) * kHoursPerDay)
      .first<kHoursPerDay>();
}

HourBuckets fold_buckets(const UserTrace& trace) {
  HourBuckets out = sized_buckets(trace);
  const auto ignore = [](const auto&) {};
  if (out.cells.empty() ||
      fold_valid(trace, out.cells, ignore, ignore) != nullptr) {
    trace.validate();  // throws naming the violation
  }
  return out;
}

MinedHabits mine_habits(const UserTrace& history) {
  HourBuckets buckets = sized_buckets(history);
  if (!buckets.cells.empty()) {
    std::vector<bool> used(buckets.num_apps, false);
    std::vector<bool> networked(buckets.num_apps, false);
    if (fold_valid(
            history, buckets.cells,
            [&](const AppUsage& u) {
              used[static_cast<std::size_t>(u.app)] = true;
            },
            [&](const NetworkActivity& n) {
              networked[static_cast<std::size_t>(n.app)] = true;
            }) == nullptr) {
      static obs::Counter& direct =
          obs::Registry::global().counter("mining.mine.direct");
      direct.add(1);
      return {HabitModel::mine(buckets, 0, history.num_days),
              SpecialApps::from_evidence(used, networked)};
    }
  }
  const fault::SanitizeResult repaired = fault::sanitize_trace(history);
  HabitModel model = HabitModel::mine(fold_buckets(repaired.trace), 0,
                                      repaired.trace.num_days);
  model.scale_confidence(repaired.report.quality());
  return {std::move(model), SpecialApps::detect(history)};
}

HabitModel HabitModel::mine(const UserTrace& history) {
  return mine_habits(history).model;
}

HabitModel HabitModel::mine(const HourBuckets& history, int first_day,
                            int last_day) {
  NM_REQUIRE(first_day >= 0 && first_day <= last_day &&
                 last_day <= history.num_days(),
             "mining window out of range");
  IncrementalHabitMiner miner;
  for (int d = first_day; d < last_day; ++d) miner.observe_day(d, history);
  return miner.snapshot();
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
  // The regime is resolved once per day and the hour once at `from`;
  // then each hour boundary steps through the regime's Pr[u] table. The
  // terms, and the order they are added in, are those of a per-hour
  // pr_active_at lookup, so the sum is bit-identical to it.
  double integral = 0.0;
  TimeMs t = from;
  while (t < to) {
    const int day = day_of(t);
    const std::array<double, kHoursPerDay>& pr =
        model_.stats(day_kind(day)).pr_active;
    for (int h = hour_of(t); h < kHoursPerDay && t < to; ++h) {
      const TimeMs seg_end = std::min(hour_start(day, h + 1), to);
      integral += pr[static_cast<std::size_t>(h)] * to_seconds(seg_end - t);
      t = seg_end;
    }
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
