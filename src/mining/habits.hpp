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
#include <cstdint>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "engine/trace_index.hpp"
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

/// Mined habit model of one user.
class HabitModel {
 public:
  /// Mines a training trace (all its days). A valid trace (no
  /// UserTrace::first_violation) is folded directly — no sanitized copy,
  /// no index — and counted in `mining.mine.direct`. Tolerant:
  /// corrupted input is repaired through fault::sanitize_trace first,
  /// and the repair ledger's quality score scales the model's
  /// confidence. Either way the model is bit-identical to
  /// mine(TraceIndex(sanitize_trace(history).trace)) at that quality.
  static HabitModel mine(const UserTrace& history);

  /// Mines from a prebuilt index (the per-hour buckets are exactly the
  /// statistics Eqs. 2–3 consume); shares the index across consumers
  /// instead of rescanning the trace. The caller vouches for the
  /// indexed trace (fleet paths validate before indexing).
  static HabitModel mine(const engine::TraceIndex& history);

  /// Windowed mine: folds only the days in [first_day, last_day) of the
  /// index, keeping their absolute day kinds (weekday/weekend phase is
  /// preserved, days outside the window contribute nothing — not even
  /// as empty observations). This is the drift-adaptation refresh path:
  /// re-mine from the post-changepoint window of the monitored history.
  /// mine(index) == mine(index, 0, index.num_days()) bit for bit.
  static HabitModel mine(const engine::TraceIndex& history, int first_day,
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

  /// Eqs. 2–3 over days [first_day, last_day) of day-major (day, hour)
  /// buckets: the one stats fold behind every mine overload.
  static HabitModel fold(
      std::span<const engine::TraceIndex::HourBucket> buckets,
      std::size_t num_apps, int first_day, int last_day);

  std::array<HourStats, 2> stats_{};
  double data_quality_ = 1.0;
};

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
