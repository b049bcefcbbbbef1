// Incremental habit mining over exponentially-decayed per-slot counters.
//
// A long-lived middleware folds each completed day into running
// per-(regime, hour) accumulators instead of rebuilding a model from
// the whole history. This miner maintains exactly the statistics
// Eqs. 2–3 consume — pr_active / pr_net occupancy sums and the
// intensity/net workload means — per DayKind, one day at a time, with a
// `decay` knob that forgets old days geometrically:
//
//   sums ← sums · (1 − decay) + today,   weight ← weight · (1 − decay) + 1
//
// applied per regime when a day of that regime arrives. Estimates are
// sums / weight, so decay = 0 degenerates to the plain per-day sums: it
// is the one Eqs. 2–3 fold, and every HabitModel::mine overload is a
// decay-0 miner fed the day rows of mining::fold_buckets (mining_test's
// hand-computed cases are the independent oracle). The decayed `weight`
// is the effective day count feeding the shared confidence formula: a
// heavily-decayed history is worth fewer days of evidence.
//
// The drift detector runs two banks of these counters at different
// decays (drift.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/time.hpp"
#include "mining/habits.hpp"

namespace netmaster::mining {

struct IncrementalConfig {
  /// Per-day forgetting factor in [0, 1): each new day of a regime
  /// scales that regime's accumulated history by (1 − decay). 0 keeps
  /// everything (batch-equivalent); larger values track recent habits
  /// with an effective window of roughly 1/decay days per regime.
  double decay = 0.0;
};

/// One day's additive contribution to the per-slot counters, detached
/// from the buckets it came from. Lets a caller buffer days and fold
/// them later (the drift detector feeds its reference bank with a lag,
/// long after the source buckets may be gone).
struct DayContribution {
  DayKind kind = DayKind::kWeekday;
  std::array<double, kHoursPerDay> active{};
  std::array<double, kHoursPerDay> net{};
  std::array<double, kHoursPerDay> intensity{};
  std::array<double, kHoursPerDay> net_count{};
  std::array<double, kHoursPerDay> net_bytes{};
};

/// Streaming per-slot habit counters, one day at a time.
class IncrementalHabitMiner {
 public:
  explicit IncrementalHabitMiner(IncrementalConfig config = {});

  const IncrementalConfig& config() const { return config_; }

  /// The one bucket-row → contribution transform: summarizes a day's
  /// 24 hour buckets (a row of HourBuckets) without folding it
  /// anywhere. `day` is the absolute day the row belongs to (it picks
  /// the regime); `num_apps` is the app-table size Eq. 3's denominator
  /// uses.
  static DayContribution summarize_day(
      int day, std::span<const HourBucket, kHoursPerDay> row,
      std::size_t num_apps);

  /// Folds one extracted day into its regime (decay, then add).
  void observe_summary(const DayContribution& day);

  /// Folds day `day` of the buckets into the day's regime. Days must be
  /// fed in increasing order for the decay semantics to mean "recent
  /// days weigh more" (not enforced — the counters themselves are
  /// order-agnostic in the decay=0 case).
  void observe_day(int day, const HourBuckets& buckets);

  /// Replaces this miner's accumulated counters with `other`'s while
  /// keeping its own decay config. The drift detector uses this to
  /// re-anchor the slow bank onto the recent-habit bank after an
  /// adaptation: from here on the copied history decays at this
  /// miner's own rate.
  void adopt_counters(const IncrementalHabitMiner& other) {
    regimes_ = other.regimes_;
  }

  /// Rescales every non-empty regime's counters so its decayed weight
  /// becomes `target_days`. Probability and mean estimates (ratios of
  /// counters to weight) are unchanged; only the inertia against
  /// future days moves. The drift detector uses this to anchor the
  /// re-based reference bank: a freshly-adopted fast bank carries only
  /// a few effective days, and without re-weighting the reference
  /// would be overrun by post-adoption days within a week — erasing
  /// the very divergence a sustained drift should keep producing.
  void rescale_weights(double target_days);

  /// Days ever folded into the given regime (undecayed count).
  int days_observed(DayKind kind) const {
    return regime(kind).days;
  }
  int days_observed() const {
    return regimes_[0].days + regimes_[1].days;
  }

  /// Decayed effective day count of the regime (equals days_observed
  /// when decay = 0).
  double effective_days(DayKind kind) const {
    return regime(kind).weight;
  }

  /// Current decayed estimates for one regime slot (0 before any day of
  /// the regime was observed).
  double pr_active(DayKind kind, int hour) const;
  double pr_net(DayKind kind, int hour) const;
  double mean_intensity(DayKind kind, int hour) const;

  /// Snapshots the counters into a HabitModel whose confidence uses the
  /// decayed effective day counts. With decay = 0 the snapshot is
  /// bit-for-bit the batch HabitModel::mine of the same observed days.
  /// `data_quality` scales the model's confidence (the sanitizer's
  /// ledger score when the observed days came through repair).
  HabitModel snapshot(double data_quality = 1.0) const;

 private:
  struct RegimeCounters {
    double weight = 0.0;  ///< decayed day count
    int days = 0;         ///< undecayed day count
    std::array<double, kHoursPerDay> active{};     ///< 1{any usage}
    std::array<double, kHoursPerDay> net{};        ///< distinct apps / m
    std::array<double, kHoursPerDay> intensity{};  ///< usage counts
    std::array<double, kHoursPerDay> net_count{};
    std::array<double, kHoursPerDay> net_bytes{};
  };

  const RegimeCounters& regime(DayKind kind) const {
    return regimes_[static_cast<std::size_t>(kind)];
  }

  IncrementalConfig config_;
  std::array<RegimeCounters, 2> regimes_{};
};

}  // namespace netmaster::mining
