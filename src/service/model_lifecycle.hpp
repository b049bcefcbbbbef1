// Drift lifecycle of one user's mined model: the continued §V mining
// loop under non-stationarity (DESIGN.md §11.3).
//
// The deployed HabitModel was mined from the training window. While the
// user keeps generating monitoring data, each completed evaluation day
// is folded into a mining::DriftDetector at its closing midnight. A
// standing alarm triggers a refresh: the model is re-mined from the
// post-changepoint window of the records seen so far, its confidence is
// ramped down until enough post-drift days back it, and it is adopted
// only past the same robustness gate the policy path applies. Refresh
// attempts are rate-limited, with exponential backoff after a rejection.
//
// Both online drivers run this one loop — service::run_online at its
// midnight tick, daemon::UserSession at each evaluation-day fold — and
// enter it the same way, with a day summary
// (IncrementalHabitMiner::summarize_day) of a mining::fold_buckets
// row. They differ only in which trace the row is folded from:
//
//   * run_online summarizes the day's row of the whole evaluation
//     trace's fold; the daemon summarizes it from the fold of its 2-day
//     reconstruction window, sanitized first. The two agree on clean
//     streams (drift_test's cross-driver grid).
//   * a refresh re-mines the tolerant reconstruction of the records of
//     days [0, day). A screen session straddling that horizon reaches
//     run_online's reconstruction with both edges, so the sanitizer
//     clips it (and charges the clip to the quality ledger); the
//     daemon refreshes before the closing edge arrives, so its
//     evaluation rebuilder's snapshot clamps the still-open session to
//     the horizon and the ledger stays clean.
#pragma once

#include <cstddef>
#include <optional>

#include "fault/sanitize.hpp"
#include "mining/drift.hpp"
#include "mining/habits.hpp"
#include "policy/netmaster.hpp"

namespace netmaster::service {

/// Online drift adaptation (ROADMAP item 5). When enabled, each
/// completed evaluation day feeds a drift detector; when it alarms, a
/// fresh model re-mined from the post-changepoint window hot-swaps the
/// deployed one — rate-limited with exponential backoff, and only when
/// the re-mined model clears the robustness gate (its confidence is
/// ramped down until enough post-drift days accumulated, so a one-day
/// model never takes over).
struct AdaptationConfig {
  bool enable = false;
  mining::DriftConfig detector;
  /// Longest re-mine window: the refresh mines records from
  /// [max(changepoint, day − window_days), day).
  int window_days = 14;
  /// Days between refresh attempts (rate limit; grows by
  /// backoff_factor after a rejected refresh, resets on adoption).
  int min_refresh_gap_days = 2;
  int backoff_factor = 2;
  /// A freshly re-mined model's confidence is scaled by
  /// min(1, window_len / confidence_ramp_days): fewer post-drift days
  /// than this leave it partially trusted (possibly below the adoption
  /// gate — the next attempt sees more days).
  int confidence_ramp_days = 3;
};

class ModelLifecycle {
 public:
  /// Validates `adapt` when it is enabled. `gate` supplies the adoption
  /// thresholds (min_training_days, min_confidence).
  ModelLifecycle(const AdaptationConfig& adapt,
                 const policy::RobustnessConfig& gate);

  /// With adaptation off, observe_summary is a no-op that never asks
  /// for a refresh (the detector stays empty, score() stays 0).
  bool enabled() const { return adapt_.enable; }

  /// Seeds the detector with the training history the deployed model
  /// was mined from — sanitized, as the miner saw it — then re-anchors
  /// it: drift is measured relative to those habits, and every later
  /// changepoint estimate lands in evaluation-day space.
  void anchor(const UserTrace& training);

  /// The midnight step after evaluation day `day` completed: folds the
  /// day's summary, counts a newly raised alarm, and returns true when
  /// a refresh is due at the midnight opening day + 1.
  bool observe_summary(int day, const mining::DayContribution& summary);

  /// The refresh at the midnight opening evaluation day `day`. `seen` is
  /// the tolerant reconstruction of evaluation days [0, day). Returns
  /// the model to adopt — the detector is already re-anchored on it —
  /// or nullopt when the gate rejected it and the next attempt backs
  /// off.
  std::optional<mining::HabitModel> refresh(
      int day, const fault::SanitizeResult& seen);

  double score() const { return detector_.score(); }
  std::size_t alarms() const { return alarms_; }    ///< distinct alarms
  std::size_t attempts() const { return attempts_; }
  std::size_t refreshes() const { return refreshes_; }  ///< adopted
  int first_alarm_day() const { return first_alarm_day_; }

 private:
  AdaptationConfig adapt_;
  policy::RobustnessConfig gate_;
  mining::DriftDetector detector_;
  bool alarm_pending_ = false;  ///< alarm raised, refresh not yet adopted
  int next_refresh_day_ = 0;
  int refresh_gap_ = 0;
  std::size_t alarms_ = 0;
  std::size_t attempts_ = 0;
  std::size_t refreshes_ = 0;
  int first_alarm_day_ = -1;
};

}  // namespace netmaster::service
