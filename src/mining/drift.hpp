// Habit-drift detection over the incremental counters (ROADMAP item 5).
//
// Real users are non-stationary: travel, schedule changes and seasonal
// modes move the per-hour habit structure the miner recovered, and a
// stale HabitModel then schedules against slots that no longer exist.
// The detector watches the monitoring stream one day at a time through
// two IncrementalHabitMiner banks per user:
//
//   fast — high decay, tracks the last handful of days,
//   slow — low decay, tracks the long-horizon habit structure.
//
// Per regime, the daily divergence is the mean absolute gap between the
// banks' pr_active / pr_net estimates (in [0, 1] by construction). Two
// signals are derived from it:
//
//   * a normalized divergence level (excess divergence over its full
//     scale, clamped),
//   * a Page–Hinkley changepoint statistic: the cumulative sum of
//     (divergence − running mean − delta) minus its running minimum.
//     The statistic stays near 0 under stationary noise and grows
//     linearly once the divergence mean shifts; it alarms above a
//     threshold λ, and the day of the running minimum estimates the
//     changepoint onset (the re-mine window start for adaptation).
//
// The per-regime drift score is the larger of the two signals, in
// [0, 1]. The online adaptation loop (service/model_lifecycle.*)
// reports it and re-mines from the post-changepoint window when the
// detector alarms. The bank decays, thresholds and warmup are fixed
// constants in drift.cpp, each with the reason for its value.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <utility>

#include "mining/habits.hpp"
#include "mining/incremental.hpp"

namespace netmaster::mining {

/// Per-user, per-regime drift detector over the monitoring day stream.
class DriftDetector {
 public:
  /// The bank decays, thresholds and warmup are the named constants
  /// of drift.cpp.
  DriftDetector();

  /// Folds day `day` of the buckets into both banks and updates the
  /// day-regime's divergence and Page–Hinkley state.
  void observe_day(int day, const HourBuckets& buckets);

  /// Same, from an already-summarized day (the streaming daemon builds
  /// contributions from its 2-day reconstruction window instead of a
  /// whole-history fold). `day` supplies the regime/changepoint day
  /// number; `summary.kind` must match day_kind(day).
  void observe_summary(int day, DayContribution summary);

  /// Folds every day of the buckets in order (seeds the detector with
  /// the training window).
  void observe_all(const HourBuckets& buckets);

  int days_observed() const { return fast_.days_observed(); }

  /// Latest per-day divergence of the regime (0 before warmup data).
  double divergence(DayKind kind) const {
    return state(kind).last_divergence;
  }
  /// Current Page–Hinkley statistic of the regime.
  double ph_statistic(DayKind kind) const { return state(kind).ph; }
  /// Learned stationary divergence floor of the regime (running mean).
  double mean_divergence(DayKind kind) const {
    return state(kind).mean_divergence;
  }

  /// Drift score of one regime in [0, 1].
  double score(DayKind kind) const;
  /// Overall drift score: the worst regime past warmup.
  double score() const;

  /// True once any regime's Page–Hinkley statistic crossed its λ
  /// (sticky until notify_adapted()).
  bool alarmed() const;
  /// Day the first still-standing alarm fired; -1 when not alarmed.
  int alarm_day() const;
  /// Estimated drift onset: the day after the alarmed regime's
  /// Page–Hinkley minimum; -1 when not alarmed.
  int changepoint_day() const;

  /// Acknowledges a model (re-)adoption and resets the changepoint
  /// statistics — but not the learned stationary noise floor. If an
  /// alarm was standing (a real drift was just handled), the reference
  /// bank additionally adopts the recent-habit bank re-anchored at
  /// a fixed pseudo-weight, so the detector watches for the *next* drift
  /// instead of re-alarming on the one just handled; without an alarm
  /// (seed-time adoption) the lagged reference is already consistent
  /// with the adopted model and is kept as is.
  void notify_adapted();

 private:
  struct RegimeState {
    double last_divergence = 0.0;
    double mean_divergence = 0.0;  ///< running mean (post-warmup days)
    int mean_days = 0;
    double ph_cum = 0.0;
    double ph_min = 0.0;
    double ph = 0.0;
    int ph_min_day = -1;
    bool alarmed = false;
    int alarm_day = -1;
  };

  const RegimeState& state(DayKind kind) const {
    return states_[static_cast<std::size_t>(kind)];
  }

  IncrementalHabitMiner fast_;
  IncrementalHabitMiner slow_;
  /// Completed days waiting out the reference lag before entering the
  /// slow bank (front = oldest), stamped with the monotone observation
  /// tick. Stored as detached contributions so the source buckets need
  /// not outlive the call, and tick-stamped because caller day numbers
  /// restart between histories (seed with the training buckets, then
  /// monitor evaluation days that start at 0 again).
  std::deque<std::pair<int, DayContribution>> pending_;
  std::array<RegimeState, 2> states_{};
  int tick_ = 0;  ///< total observe_day calls, immune to day restarts
};

}  // namespace netmaster::mining
