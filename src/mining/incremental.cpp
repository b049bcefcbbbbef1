#include "mining/incremental.hpp"

#include <cmath>

#include "common/error.hpp"

namespace netmaster::mining {

IncrementalHabitMiner::IncrementalHabitMiner(IncrementalConfig config)
    : config_(config) {
  NM_REQUIRE(std::isfinite(config.decay) && config.decay >= 0.0 &&
                 config.decay < 1.0,
             "decay must be in [0, 1)");
}

DayContribution IncrementalHabitMiner::summarize_day(
    int day, std::span<const HourBucket, kHoursPerDay> row,
    std::size_t num_apps) {
  DayContribution c;
  c.kind = day_kind(day);
  for (int h = 0; h < kHoursPerDay; ++h) {
    const HourBucket& bucket = row[h];
    if (bucket.usage_count > 0) c.active[h] = 1.0;
    c.intensity[h] = bucket.usage_count;
    c.net_count[h] = bucket.net_count;
    c.net_bytes[h] = bucket.net_bytes;
    if (num_apps > 0) {
      c.net[h] = static_cast<double>(bucket.distinct_net_apps) /
                 static_cast<double>(num_apps);
    }
  }
  return c;
}

void IncrementalHabitMiner::observe_summary(const DayContribution& day) {
  RegimeCounters& r = regimes_[static_cast<std::size_t>(day.kind)];

  // Forget, then fold — the same per-day contributions the batch miner
  // accumulates, so the keep-everything case stays bit-identical
  // (x * 1.0 == x for every finite x, and adding the contribution is
  // the same addition the batch fold performs).
  const double keep = 1.0 - config_.decay;
  if (keep != 1.0 && r.weight > 0.0) {
    for (int h = 0; h < kHoursPerDay; ++h) {
      r.active[h] *= keep;
      r.net[h] *= keep;
      r.intensity[h] *= keep;
      r.net_count[h] *= keep;
      r.net_bytes[h] *= keep;
    }
    r.weight *= keep;
  }
  for (int h = 0; h < kHoursPerDay; ++h) {
    r.active[h] += day.active[h];
    r.net[h] += day.net[h];
    r.intensity[h] += day.intensity[h];
    r.net_count[h] += day.net_count[h];
    r.net_bytes[h] += day.net_bytes[h];
  }
  r.weight += 1.0;
  ++r.days;
}

void IncrementalHabitMiner::observe_day(int day,
                                        const HourBuckets& buckets) {
  observe_summary(summarize_day(day, buckets.day(day), buckets.num_apps));
}

void IncrementalHabitMiner::rescale_weights(double target_days) {
  NM_REQUIRE(std::isfinite(target_days) && target_days > 0.0,
             "target_days must be finite and positive");
  for (RegimeCounters& r : regimes_) {
    if (r.weight <= 0.0) continue;
    const double factor = target_days / r.weight;
    for (int h = 0; h < kHoursPerDay; ++h) {
      r.active[h] *= factor;
      r.net[h] *= factor;
      r.intensity[h] *= factor;
      r.net_count[h] *= factor;
      r.net_bytes[h] *= factor;
    }
    r.weight = target_days;
  }
}

double IncrementalHabitMiner::pr_active(DayKind kind, int hour) const {
  NM_REQUIRE(hour >= 0 && hour < kHoursPerDay, "hour out of range");
  const RegimeCounters& r = regime(kind);
  return r.weight > 0.0 ? r.active[hour] / r.weight : 0.0;
}

double IncrementalHabitMiner::pr_net(DayKind kind, int hour) const {
  NM_REQUIRE(hour >= 0 && hour < kHoursPerDay, "hour out of range");
  const RegimeCounters& r = regime(kind);
  return r.weight > 0.0 ? r.net[hour] / r.weight : 0.0;
}

double IncrementalHabitMiner::mean_intensity(DayKind kind,
                                             int hour) const {
  NM_REQUIRE(hour >= 0 && hour < kHoursPerDay, "hour out of range");
  const RegimeCounters& r = regime(kind);
  return r.weight > 0.0 ? r.intensity[hour] / r.weight : 0.0;
}

HabitModel IncrementalHabitMiner::snapshot(double data_quality) const {
  NM_REQUIRE(std::isfinite(data_quality) && data_quality >= 0.0 &&
                 data_quality <= 1.0,
             "data_quality must be in [0, 1]");
  HabitModel model;
  model.data_quality_ = data_quality;
  for (std::size_t i = 0; i < regimes_.size(); ++i) {
    const RegimeCounters& r = regimes_[i];
    HourStats& s = model.stats_[i];
    s.days_observed = r.days;
    if (r.weight <= 0.0) continue;  // confidence stays all-zero
    const double k = r.weight;
    for (int h = 0; h < kHoursPerDay; ++h) {
      s.pr_active[h] = r.active[h] / k;
      s.pr_net[h] = r.net[h] / k;
      s.mean_intensity[h] = r.intensity[h] / k;
      s.mean_net_count[h] = r.net_count[h] / k;
      s.mean_net_bytes[h] = r.net_bytes[h] / k;
      s.confidence[h] = slot_confidence(k, s.pr_active[h]);
    }
  }
  return model;
}

}  // namespace netmaster::mining
