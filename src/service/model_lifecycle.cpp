#include "service/model_lifecycle.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace netmaster::service {

ModelLifecycle::ModelLifecycle(const AdaptationConfig& adapt,
                               const policy::RobustnessConfig& gate)
    : adapt_(adapt),
      gate_(gate),
      detector_(adapt.detector),
      refresh_gap_(adapt.min_refresh_gap_days) {
  if (!adapt_.enable) return;
  NM_REQUIRE(adapt_.window_days > 0, "window_days must be positive");
  NM_REQUIRE(adapt_.min_refresh_gap_days > 0,
             "min_refresh_gap_days must be positive");
  NM_REQUIRE(adapt_.backoff_factor >= 1,
             "backoff_factor must be at least 1");
  NM_REQUIRE(adapt_.confidence_ramp_days > 0,
             "confidence_ramp_days must be positive");
}

void ModelLifecycle::anchor(const UserTrace& training) {
  detector_.observe_all(
      mining::fold_buckets(fault::sanitize_trace(training).trace));
  detector_.notify_adapted();
}

bool ModelLifecycle::observe_summary(
    int day, const mining::DayContribution& summary) {
  if (!adapt_.enable) return false;
  detector_.observe_summary(day, summary);
  if (!detector_.alarmed()) return false;
  if (!alarm_pending_) {
    alarm_pending_ = true;
    ++alarms_;
    if (first_alarm_day_ < 0) first_alarm_day_ = detector_.alarm_day();
  }
  return day + 1 >= next_refresh_day_;
}

std::optional<mining::HabitModel> ModelLifecycle::refresh(
    int day, const fault::SanitizeResult& seen) {
  ++attempts_;
  // Mine only the post-changepoint days, so pre-drift habits do not
  // dilute the new model.
  const int changepoint =
      std::clamp(detector_.changepoint_day(), 0, day - 1);
  const int start = std::max(changepoint, day - adapt_.window_days);
  mining::HabitModel fresh =
      mining::HabitModel::mine(mining::fold_buckets(seen.trace), start, day);
  fresh.scale_confidence(seen.report.quality());
  fresh.scale_confidence(
      std::min(1.0, static_cast<double>(day - start) /
                        static_cast<double>(adapt_.confidence_ramp_days)));
  const bool adopt = fresh.training_days() >= gate_.min_training_days &&
                     fresh.overall_confidence() >= gate_.min_confidence;
  refresh_gap_ = adopt ? adapt_.min_refresh_gap_days
                       : refresh_gap_ * adapt_.backoff_factor;
  next_refresh_day_ = day + refresh_gap_;
  if (!adopt) return std::nullopt;
  detector_.notify_adapted();
  alarm_pending_ = false;
  ++refreshes_;
  return fresh;
}

}  // namespace netmaster::service
