#include "mining/drift.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace netmaster::mining {

namespace {

// Divergence blend. Raw probability gaps alone have poor signal-to-
// noise (the fast bank's few-day window keeps |Δpr| around 0.05 even
// under stationarity), so the blend leans on the slot-flip term: hours
// whose fast and slow banks disagree about δ-threshold slot membership
// — the structure the scheduler actually consumes — flip rarely under
// stationary noise but wholesale under a habit shift.
constexpr double kActiveWeight = 0.45;
constexpr double kNetWeight = 0.15;
constexpr double kFlipWeight = 0.40;

// Reference days required before a regime's divergence is measured at
// all (floor learning); alarming additionally needs the reference past
// the full warmup.
constexpr int kMinReferenceDays = 2;

// Decay of the recent-habit counter bank (effective window ~8 days).
// Short windows track drift faster but also follow benign multi-day
// excursions (a noisy week of a stationary user), which is the dominant
// false-positive source.
constexpr double kFastDecay = 0.12;
// The reference bank does not decay: a pure running average over the
// epoch since the last adaptation keeps the *stationary* fast-vs-slow
// divergence flat after the first few days. Any window-limited slow
// bank instead produces a weeks-long divergence ramp as the two windows
// separate, and the changepoint statistic reads that ramp as drift.
constexpr double kSlowDecay = 0.0;
static_assert(kFastDecay > kSlowDecay && kFastDecay < 1.0,
              "the fast bank must forget, and faster than the slow one");

// Days a completed day is buffered before it is folded into the
// reference bank. With a lag of about one fast window the two banks
// never share recent days, so the stationary divergence floor is the
// same while seeding and while monitoring. Without the lag the
// correlated seeding phase learns a floor far below the monitoring one
// and the changepoint statistic reads the difference as drift.
constexpr int kReferenceLagDays = 8;

// Pseudo-weight (in days) the reference bank is re-anchored to at
// notify_adapted(). The adopted fast counters carry only a few
// effective days; without re-weighting, post-adoption days overrun the
// reference within a week and a sustained drift's divergence fades
// before the changepoint statistic can integrate it.
constexpr double kAnchorDays = 14.0;

// δ thresholds of the slot-flip component of the divergence: an hour
// whose fast and slow banks disagree about slot membership (pr_active
// above/below δ) is a scheduling-relevant flip. They match the
// predictor the policy runs with.
constexpr PredictorConfig kFlipDelta{};
static_assert(kFlipDelta.delta_weekday > 0.0 &&
                  kFlipDelta.delta_weekday < 1.0 &&
                  kFlipDelta.delta_weekend > 0.0 &&
                  kFlipDelta.delta_weekend < 1.0,
              "slot-flip deltas must lie in (0, 1)");

// Excess divergence above the learned stationary floor that maps to
// score 1.0 (an office→night-owl flip sustains an excess near 0.15;
// stationary noise stays under ~0.05).
constexpr double kDivergenceFullScale = 0.15;

// Page–Hinkley tolerance: divergence drift below kPhDelta per day above
// the learned stationary mean is treated as noise. The daily increment
// is also *capped* at +2·kPhDelta, so an alarm always stands on at
// least λ / (2·kPhDelta) elevated regime days (minus drain): a single
// outlier day cannot alarm however far it diverges, while a sustained
// shift accumulates within a week.
constexpr double kPhDelta = 0.025;

// Page–Hinkley alarm threshold λ of the weekday regime.
constexpr double kPhLambda = 0.08;
// Multiplier on λ for the weekend regime. Weekends supply only 2 of 7
// days, so the weekend banks' divergence estimates are far noisier than
// the weekday ones, and elevated weekend days cluster (two per calendar
// weekend) with few intervening samples to drain the statistic. One
// threshold for both regimes makes sparse-user weekends the dominant
// false-positive source; scaling the weekend threshold restores a
// matched false-positive rate at the cost of roughly one extra calendar
// week of weekend-only drift latency.
constexpr double kPhLambdaWeekendScale = 2.0;
static_assert(kPhLambda > 0.0 && kPhLambdaWeekendScale >= 1.0,
              "λ must be positive and the weekend λ no smaller");

// Days of a regime to observe before its signals count (the fast bank
// needs a few days before fast-vs-slow gaps mean anything).
constexpr int kWarmupDays = 4;

double ph_lambda(DayKind kind) {
  return kind == DayKind::kWeekend ? kPhLambda * kPhLambdaWeekendScale
                                   : kPhLambda;
}

struct DriftMetrics {
  obs::Counter& days;
  obs::Counter& alarms;
  obs::Histogram& score;
};

DriftMetrics& drift_metrics() {
  static DriftMetrics metrics{
      obs::Registry::global().counter("mining.drift.days_observed"),
      obs::Registry::global().counter("mining.drift.alarms"),
      obs::Registry::global().histogram("mining.drift.score",
                                        obs::fraction_bounds()),
  };
  return metrics;
}

}  // namespace

DriftDetector::DriftDetector()
    : fast_(IncrementalConfig{kFastDecay}),
      slow_(IncrementalConfig{kSlowDecay}) {}

void DriftDetector::observe_day(int day, const HourBuckets& buckets) {
  observe_summary(day, IncrementalHabitMiner::summarize_day(
                           day, buckets.day(day), buckets.num_apps));
}

void DriftDetector::observe_summary(int day, DayContribution today) {
  fast_.observe_summary(today);
  ++tick_;
  pending_.emplace_back(tick_, std::move(today));
  // Days older than the reference lag graduate into the slow bank.
  while (!pending_.empty() &&
         tick_ - pending_.front().first >= kReferenceLagDays) {
    slow_.observe_summary(pending_.front().second);
    pending_.pop_front();
  }
  const DayKind kind = day_kind(day);
  RegimeState& st = states_[static_cast<std::size_t>(kind)];

  const double delta = kind == DayKind::kWeekday
                           ? kFlipDelta.delta_weekday
                           : kFlipDelta.delta_weekend;
  double div = 0.0;
  for (int h = 0; h < kHoursPerDay; ++h) {
    const double fast_a = fast_.pr_active(kind, h);
    const double slow_a = slow_.pr_active(kind, h);
    const double gap_a = std::abs(fast_a - slow_a);
    // A flip counts in proportion to how decisively the banks disagree
    // relative to the slot threshold: an estimate hovering at δ flips
    // on hairline sampling noise (the dominant weekend false-positive
    // source for sparse users), while a genuine habit shift moves
    // pr_active across δ by a wide margin.
    const bool flip = (fast_a > delta) != (slow_a > delta);
    const double flip_w = flip ? std::min(1.0, gap_a / delta) : 0.0;
    div += kActiveWeight * gap_a +
           kNetWeight *
               std::abs(fast_.pr_net(kind, h) - slow_.pr_net(kind, h)) +
           kFlipWeight * flip_w;
  }
  div /= kHoursPerDay;
  st.last_divergence = div;

  DriftMetrics& metrics = drift_metrics();
  metrics.days.add(1);

  // The fast bank needs a few regime days before the fast-slow gap
  // measures anything but initialization transients, and the lagged
  // reference at least kMinReferenceDays — before that the regime is
  // fully gated. Alarming is stricter: it additionally waits for the
  // reference to pass the full warmup and for the floor to hold at
  // least one sample, because against a two-day reference the gap
  // measures sampling noise (the dominant weekend false-positive
  // source on short horizons).
  if (fast_.days_observed(kind) <= kWarmupDays ||
      slow_.days_observed(kind) < kMinReferenceDays) {
    metrics.score.add(score());
    return;
  }
  const bool armed =
      slow_.days_observed(kind) > kWarmupDays && st.mean_days > 0;

  // Page–Hinkley: cumulative deviation above the running mean (plus
  // the kPhDelta tolerance), referenced to its own running minimum.
  // The minimum starts at the 0 the cumsum itself starts from, so a
  // divergence jump on the very first post-(re)set day already counts.
  // The reference mean deliberately EXCLUDES today's sample (a drifted
  // day must be measured against the stationary floor, not against a
  // mean it has already pulled up), and stops updating once alarmed so
  // an unhandled drift cannot launder itself into the baseline.
  const double reference =
      st.mean_days > 0 ? st.mean_divergence : div;
  if (armed) {
    // The positive increment is capped at +2·kPhDelta: an alarm then
    // always stands on multiple elevated days of the regime, so a
    // single-day outlier (a sparse user's quirky weekend) cannot alarm
    // no matter how far it diverges, while a sustained shift still
    // accumulates to the threshold in days.
    st.ph_cum += std::min(div - reference - kPhDelta, 2.0 * kPhDelta);
    if (st.ph_cum < st.ph_min) {
      st.ph_min = st.ph_cum;
      st.ph_min_day = day;
    }
    st.ph = st.ph_cum - st.ph_min;
    if (st.ph > ph_lambda(kind) && !st.alarmed) {
      st.alarmed = true;
      st.alarm_day = day;
      metrics.alarms.add(1);
    }
  }
  if (!st.alarmed) {
    // Robust floor update: clip the folded sample to reference + δ so
    // stationary noise (≈ ±δ) passes through nearly unbiased while a
    // drifted run of high-divergence days cannot drag the floor up
    // fast enough to suppress its own changepoint statistic.
    const double clipped = std::min(div, reference + kPhDelta);
    ++st.mean_days;
    st.mean_divergence += (clipped - st.mean_divergence) / st.mean_days;
  }
  metrics.score.add(score());
}

void DriftDetector::observe_all(const HourBuckets& buckets) {
  for (int d = 0; d < buckets.num_days(); ++d) observe_day(d, buckets);
}

double DriftDetector::score(DayKind kind) const {
  const RegimeState& st = state(kind);
  if (fast_.days_observed(kind) <= kWarmupDays ||
      slow_.days_observed(kind) < kMinReferenceDays) {
    return 0.0;
  }
  // Level component: excess divergence above the learned stationary
  // floor — the floor itself varies per archetype (noisy users sit
  // near 0.15, quiet ones near 0.05), so the raw level carries no
  // drift information.
  const double excess =
      std::max(0.0, st.last_divergence - st.mean_divergence);
  const double level = excess / kDivergenceFullScale;
  const double changepoint = st.ph / ph_lambda(kind);
  return std::clamp(std::max(level, changepoint), 0.0, 1.0);
}

double DriftDetector::score() const {
  return std::max(score(DayKind::kWeekday), score(DayKind::kWeekend));
}

bool DriftDetector::alarmed() const {
  return states_[0].alarmed || states_[1].alarmed;
}

int DriftDetector::alarm_day() const {
  int day = -1;
  for (const RegimeState& st : states_) {
    if (!st.alarmed) continue;
    if (day < 0 || st.alarm_day < day) day = st.alarm_day;
  }
  return day;
}

int DriftDetector::changepoint_day() const {
  // Onset estimate of the earliest-alarming regime: the Page–Hinkley
  // statistic was at its minimum just before the mean shifted, so the
  // day after the minimum is the first post-drift day.
  int best_alarm = -1;
  int onset = -1;
  for (const RegimeState& st : states_) {
    if (!st.alarmed) continue;
    if (best_alarm < 0 || st.alarm_day < best_alarm) {
      best_alarm = st.alarm_day;
      onset = st.ph_min_day + 1;
    }
  }
  return onset;
}

void DriftDetector::notify_adapted() {
  // Only a drift that actually alarmed re-bases the reference: the
  // re-mined model then reflects the recent habits, so the slow bank
  // adopts the fast one (re-anchored so post-adoption days cannot
  // overrun it) and the buffered lag days — already inside the adopted
  // counters — are dropped. A seed-time or voluntary adoption keeps
  // the lagged reference: it is already consistent with the model, and
  // swapping it for the fast bank would re-introduce the correlated
  // ramp the lag exists to avoid. In both cases the changepoint
  // statistics restart while the running divergence mean is kept — it
  // is the learned stationary noise floor, and discarding it would
  // make the statistic adopt a post-onset divergence level as
  // "normal".
  if (alarmed()) {
    slow_.adopt_counters(fast_);
    slow_.rescale_weights(kAnchorDays);
    pending_.clear();
  }
  for (RegimeState& st : states_) {
    st.last_divergence = 0.0;
    // Keep the learned floor value but cut its sample weight: the
    // divergence floor shifts between epochs (the reference bank's
    // size changes), and a heavy stale mean would mask the next drift.
    // The clipped update still stops a drift from laundering itself
    // into the re-converging mean.
    st.mean_days = std::min(st.mean_days, 3);
    st.ph_cum = 0.0;
    st.ph_min = 0.0;
    st.ph = 0.0;
    // -1 sentinel: caller day numbers may restart on the next history
    // (seed → monitor), so the pre-adaptation day is meaningless as a
    // changepoint reference; "never dipped" maps to onset day 0.
    st.ph_min_day = -1;
    st.alarmed = false;
    st.alarm_day = -1;
  }
}

}  // namespace netmaster::mining
