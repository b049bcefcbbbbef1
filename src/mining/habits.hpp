// Habit mining and hour-level prediction (§IV-A steps 1–2, §IV-C.1).
//
// The miner consumes a training trace and produces per-hour statistics
// split by day kind (weekday / weekend, the paper's two δ regimes):
//   - Pr[u(ti)]: fraction of history days with any foreground usage in
//     hour ti (Eq. 2),
//   - Pr[n(ti)]: fraction of (app, day) pairs with screen-off network
//     activity in hour ti (Eq. 3),
//   - mean screen-off activity count and bytes per hour (workload shape
//     for the scheduler).
//
// The predictor thresholds Pr[u] at δ to produce the user-active slot
// set U for a day (adjacent qualifying hours merge into variable-length
// slots), and exposes Pr[u(t)] for the penalty integral of Eq. 4.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "mining/special_apps.hpp"
#include "trace/trace.hpp"

namespace netmaster::mining {

/// Day regime. The paper applies different interrupt budgets to
/// weekdays (δ = 0.2) and weekends (δ = 0.1).
enum class DayKind { kWeekday = 0, kWeekend = 1 };

inline DayKind day_kind(int day) {
  return is_weekend(day) ? DayKind::kWeekend : DayKind::kWeekday;
}

/// Extra shrink applied to a regime whose (effective) history is a
/// single day. One day pins pr_active to 0/1, so the binomial standard
/// error vanishes and the raw k/(k+1) factor alone would report 0.5 —
/// above the default robustness gate — for history that is barely
/// evidence. The penalty keeps one-day regimes (fresh post-drift
/// re-mines, truncated training) below the default min_confidence until
/// a second day accumulates.
inline constexpr double kSingleDayRegimePenalty = 0.4;

/// Per-slot estimate confidence from an effective day count `k` (> 0;
/// fractional under decayed incremental mining) and the slot's
/// pr_active estimate `p`: a sample-size factor k/(k+1) shrunk by the
/// binomial standard error sqrt(p(1-p)/k), with the single-day penalty
/// above for k <= 1. Shared by the batch and incremental miners so
/// decay = 0 reproduces batch confidences bit for bit.
double slot_confidence(double k, double p);

/// One (day, hour) cell of the statistic Eqs. 2–3 mine.
struct HourBucket {
  int usage_count = 0;  ///< foreground interactions starting this hour
  int net_count = 0;    ///< screen-off network activities
  double net_bytes = 0.0;      ///< bytes moved by those activities
  int distinct_net_apps = 0;   ///< apps with screen-off traffic
};

/// A trace's per-(day, hour) buckets and the app-table size Eq. 3
/// divides by.
struct HourBuckets {
  std::vector<HourBucket> cells;  ///< (d, h) at d * kHoursPerDay + h
  std::size_t num_apps = 0;

  int num_days() const {
    return static_cast<int>(cells.size() / kHoursPerDay);
  }

  /// Day `day`'s 24 buckets; throws netmaster::Error out of range.
  std::span<const HourBucket, kHoursPerDay> day(int day) const;
};

/// The bucket fold: one pass over a valid trace (UserTrace::validate()
/// holds — sanitize_trace guarantees it) counting each usage in the
/// hour it starts and each screen-off activity, its bytes and its app
/// in the hour it starts. Throws netmaster::Error naming the first
/// violation of an invalid trace; callers holding input that may be
/// invalid sanitize it first.
HourBuckets fold_buckets(const UserTrace& trace);

/// Per-hour habit statistics for one day regime.
struct HourStats {
  std::array<double, kHoursPerDay> pr_active{};   ///< Eq. 2 numerator/k
  std::array<double, kHoursPerDay> pr_net{};      ///< Eq. 3
  std::array<double, kHoursPerDay> mean_intensity{};
  std::array<double, kHoursPerDay> mean_net_count{};  ///< screen-off
  std::array<double, kHoursPerDay> mean_net_bytes{};  ///< screen-off
  /// Per-slot estimate confidence in [0, 1]: shrinks with the binomial
  /// standard error of pr_active and with small day counts (0 when the
  /// regime was never observed). Does not include the data-quality
  /// factor — see HabitModel::confidence.
  std::array<double, kHoursPerDay> confidence{};
  int days_observed = 0;
};

/// Mined habit model of one user. Both mine overloads feed day rows of
/// (day, hour) buckets to a decay-0 IncrementalHabitMiner and return
/// its snapshot — the one Eqs. 2–3 fold (incremental.hpp).
class HabitModel {
 public:
  /// Mines a training trace (all its days): mine_habits(history).model,
  /// so the same one-pass fold and the same repair path.
  static HabitModel mine(const UserTrace& history);

  /// Mines days [first_day, last_day) of folded buckets, keeping their
  /// absolute day kinds (weekday/weekend phase is preserved, days
  /// outside the window contribute nothing — not even as empty
  /// observations). With the whole range it is the batch mine; a
  /// sub-window is the drift-adaptation refresh: re-mine from the
  /// post-changepoint window of the monitored history.
  static HabitModel mine(const HourBuckets& history, int first_day,
                         int last_day);

  /// Scales the model's data-quality factor by `factor` in [0, 1] —
  /// every per-slot and pooled confidence shrinks with it. Used by the
  /// sanitizer ledger and by the drift-adaptation confidence ramp
  /// (a freshly re-mined model is not trusted at full strength until
  /// enough post-drift days accumulate).
  void scale_confidence(double factor);

  const HourStats& stats(DayKind kind) const {
    return stats_[static_cast<std::size_t>(kind)];
  }

  /// Pr[u] at an absolute trace time (hour-level resolution), using the
  /// regime of the day containing t.
  double pr_active_at(TimeMs t) const;

  /// Pr[u] for a given regime and hour of day.
  double pr_active(DayKind kind, int hour) const;

  /// Per-slot confidence in [0, 1]: the regime's per-hour estimate
  /// confidence scaled by the training data quality.
  double confidence(DayKind kind, int hour) const;

  /// Confidence pooled over both regimes (weighted by days observed);
  /// 0 when the model saw no training days at all. NetMasterPolicy
  /// compares this against its robustness threshold.
  double overall_confidence() const;

  /// Total training days folded into the model (both regimes).
  int training_days() const {
    return stats_[0].days_observed + stats_[1].days_observed;
  }

  /// Fraction of training events that survived sanitation (1 for clean
  /// training input).
  double data_quality() const { return data_quality_; }

 private:
  friend class IncrementalHabitMiner;  ///< snapshots fill stats_ directly

  std::array<HourStats, 2> stats_{};
  double data_quality_ = 1.0;
};

/// Everything NetMaster learns from one training trace (§IV-A's mined
/// habits and §IV-C.2's special apps).
struct MinedHabits {
  HabitModel model;
  SpecialApps special;
};

/// Mines a training trace into its habit model and special apps. A
/// valid trace (UserTrace::first_violation() == nullptr) takes one
/// pass: fold_buckets' validating fold with the used / networked app
/// flags riding on it — no sanitized copy, no second scan — and the
/// mine counts in `mining.mine.direct`. At the first violation the
/// partial folds are dropped and the trace takes the repair path:
/// sanitize, fold, mine, with the repair ledger's quality score scaling
/// the model's confidence, and SpecialApps::detect on the raw trace.
/// Either way the result is bit-identical to {mine(fold_buckets(
/// sanitize_trace(history).trace), 0, days) at that quality,
/// SpecialApps::detect(history)}.
MinedHabits mine_habits(const UserTrace& history);

/// Configuration of the slot predictor.
struct PredictorConfig {
  double delta_weekday = 0.2;  ///< interrupt budget δ on weekdays
  double delta_weekend = 0.1;  ///< δ on weekends
};

/// The predicted slot structure for one day.
struct DayPrediction {
  int day = 0;
  /// User-active slot set U (absolute trace times, merged hours).
  IntervalSet active_slots;
  /// Screen-off network-active slots Tn: hours outside U where history
  /// shows screen-off traffic (Eq. 3's Pr[n] > 0 restricted to ti ∉ U).
  IntervalSet net_slots;
};

/// Thresholds a HabitModel into daily slot predictions.
class SlotPredictor {
 public:
  SlotPredictor(HabitModel model, PredictorConfig config);

  const HabitModel& model() const { return model_; }
  const PredictorConfig& config() const { return config_; }

  /// δ in effect for the given day.
  double delta_for_day(int day) const;

  /// Predicted slots for one (absolute) day index.
  DayPrediction predict_day(int day) const;

  /// True when instant t falls in a predicted user-active slot.
  bool is_predicted_active(TimeMs t) const;

  /// Integral of Pr[u(t)]·dt over [from, to) in probability·seconds —
  /// the second factor of the paper's penalty ΔP (Eq. 4).
  double active_probability_integral(TimeMs from, TimeMs to) const;

  /// Predicted Wi-Fi presence windows for one (absolute) day: the hours
  /// whose Pr[u] is at least `min_probability` (adjacent hours merge).
  /// High-probability habit hours are the hours the user reliably
  /// spends at a routine location — home or office, i.e. at a familiar
  /// AP — so the threshold (deliberately stricter than the δ slot
  /// threshold) is the habit model's proxy for Wi-Fi availability, in
  /// the spirit of predictive green wireless access. The multi-radio
  /// co-scheduler offers these windows as offload knapsacks.
  IntervalSet presence_windows(int day, double min_probability) const;

 private:
  HabitModel model_;
  PredictorConfig config_;
};

/// Prediction accuracy on an evaluation trace: the fraction of actual
/// foreground usages that fall inside the predicted active slots
/// (the paper's Fig. 10c definition).
double prediction_accuracy(const SlotPredictor& predictor,
                           const UserTrace& eval);

}  // namespace netmaster::mining
