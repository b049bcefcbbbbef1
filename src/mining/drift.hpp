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
//   * a normalized divergence level (divergence / full_scale, clamped),
//   * a Page–Hinkley changepoint statistic: the cumulative sum of
//     (divergence − running mean − delta) minus its running minimum.
//     The statistic stays near 0 under stationary noise and grows
//     linearly once the divergence mean shifts; it alarms above
//     `ph_lambda`, and the day of the running minimum estimates the
//     changepoint onset (the re-mine window start for adaptation).
//
// The per-regime drift score is the larger of the two signals, in
// [0, 1]. Scores feed policy::RobustnessConfig (high drift lowers
// effective model confidence toward the safe fallback schedule) and the
// online adaptation loop (service/online_sim.*), which re-mines from
// the post-changepoint window when the detector alarms.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <utility>

#include "mining/habits.hpp"
#include "mining/incremental.hpp"

namespace netmaster::mining {

struct DriftConfig {
  /// Decay of the recent-habit counter bank (effective window ~8
  /// days). Short windows track drift faster but also follow benign
  /// multi-day excursions (a noisy week of a stationary user), which
  /// is the dominant false-positive source.
  double fast_decay = 0.12;
  /// Decay of the reference bank. The default 0 makes it a pure
  /// running average over the epoch since the last adaptation, which
  /// keeps the *stationary* fast-vs-slow divergence flat after the
  /// first few days: any window-limited slow bank instead produces a
  /// weeks-long divergence ramp as the two windows separate, and the
  /// changepoint statistic reads that ramp as drift.
  double slow_decay = 0.0;
  /// Days a completed day is buffered before it is folded into the
  /// reference bank. With a lag of about one fast window the two banks
  /// never share recent days, so the stationary divergence floor is
  /// the same while seeding and while monitoring — without the lag the
  /// correlated seeding phase learns a floor far below the monitoring
  /// one and the changepoint statistic reads the difference as drift.
  int reference_lag_days = 8;
  /// Pseudo-weight (in days) the reference bank is re-anchored to at
  /// notify_adapted(). The adopted fast counters carry only a few
  /// effective days; without re-weighting, post-adoption days overrun
  /// the reference within a week and a sustained drift's divergence
  /// fades before the changepoint statistic can integrate it. 0
  /// disables re-anchoring.
  double anchor_days = 14.0;
  /// δ thresholds used for the slot-flip component of the divergence:
  /// an hour whose fast and slow banks disagree about slot membership
  /// (pr_active above/below δ) is a scheduling-relevant flip. Matches
  /// the predictor the policy runs with.
  PredictorConfig predictor;
  /// Excess divergence above the learned stationary floor that maps to
  /// score 1.0 (an office→night-owl flip sustains an excess near 0.15;
  /// stationary noise stays under ~0.05).
  double divergence_full_scale = 0.15;
  /// Page–Hinkley tolerance: divergence drift below `ph_delta`/day
  /// above the learned stationary mean is treated as noise. The daily
  /// increment is also *capped* at +2·ph_delta, so an alarm always
  /// stands on at least ph_lambda / (2·ph_delta) elevated regime days
  /// (minus drain): a single outlier day cannot alarm however far it
  /// diverges, while a sustained shift accumulates within a week.
  double ph_delta = 0.025;
  /// Page–Hinkley alarm threshold (weekday regime).
  double ph_lambda = 0.08;
  /// Multiplier on ph_lambda for the weekend regime. Weekends supply
  /// only 2 of 7 days, so the weekend banks' divergence estimates are
  /// far noisier than the weekday ones, and elevated weekend days
  /// cluster (two per calendar weekend) with few intervening samples
  /// to drain the statistic. Holding the same threshold for both
  /// regimes makes sparse-user weekends the dominant false-positive
  /// source; scaling the weekend threshold restores a matched false-
  /// positive rate at the cost of roughly one extra calendar week of
  /// weekend-only drift latency.
  double ph_lambda_weekend_scale = 2.0;
  /// Days of a regime to observe before its signals count (the fast
  /// bank needs a few days before fast-vs-slow gaps mean anything).
  int warmup_days = 4;
};

/// Per-user, per-regime drift detector over the monitoring day stream.
class DriftDetector {
 public:
  /// Validates the config with NM_REQUIRE: decays in [0, 1) with
  /// fast > slow, thresholds finite and positive, warmup non-negative.
  explicit DriftDetector(DriftConfig config = {});

  const DriftConfig& config() const { return config_; }

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

  /// True once any regime's Page–Hinkley statistic crossed ph_lambda
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
  /// `anchor_days`, so the detector watches for the *next* drift
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

  DriftConfig config_;
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
