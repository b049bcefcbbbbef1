#include "service/model_lifecycle.hpp"

#include <algorithm>

namespace netmaster::service {

namespace {

// Longest re-mine window: a refresh mines the records of
// [max(changepoint, day − kWindowDays), day).
constexpr int kWindowDays = 14;
// Days between refresh attempts (rate limit). The gap grows by
// kBackoffFactor after a rejected refresh and resets on adoption.
constexpr int kMinRefreshGapDays = 2;
constexpr int kBackoffFactor = 2;
// A freshly re-mined model's confidence is scaled by
// min(1, window_len / kConfidenceRampDays): fewer post-drift days than
// this leave it partially trusted (possibly below the adoption gate;
// the next attempt sees more days).
constexpr int kConfidenceRampDays = 3;
static_assert(kWindowDays > 0 && kMinRefreshGapDays > 0 &&
                  kBackoffFactor >= 1 && kConfidenceRampDays > 0,
              "the window, refresh gap, backoff and ramp must be positive");

}  // namespace

ModelLifecycle::ModelLifecycle(AdaptationConfig adapt,
                               const policy::RobustnessConfig& gate)
    : enabled_(adapt.enable), gate_(gate), refresh_gap_(kMinRefreshGapDays) {}

void ModelLifecycle::anchor(const UserTrace& training) {
  // sanitize_trace passes a valid trace through unchanged, so only a
  // trace with a violation pays for the repaired copy (as mine_habits).
  detector_.observe_all(
      training.first_violation() == nullptr
          ? mining::fold_buckets(training)
          : mining::fold_buckets(fault::sanitize_trace(training).trace));
  detector_.notify_adapted();
}

bool ModelLifecycle::observe_summary(
    int day, const mining::DayContribution& summary) {
  if (!enabled_) return false;
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
  const int start = std::max(changepoint, day - kWindowDays);
  mining::HabitModel fresh =
      mining::HabitModel::mine(mining::fold_buckets(seen.trace), start, day);
  fresh.scale_confidence(seen.report.quality());
  fresh.scale_confidence(
      std::min(1.0, static_cast<double>(day - start) /
                        static_cast<double>(kConfidenceRampDays)));
  const bool adopt = fresh.training_days() >= gate_.min_training_days &&
                     fresh.overall_confidence() >= gate_.min_confidence;
  refresh_gap_ = adopt ? kMinRefreshGapDays : refresh_gap_ * kBackoffFactor;
  next_refresh_day_ = day + refresh_gap_;
  if (!adopt) return std::nullopt;
  detector_.notify_adapted();
  alarm_pending_ = false;
  ++refreshes_;
  return fresh;
}

}  // namespace netmaster::service
