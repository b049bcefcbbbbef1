// Tests for habit mining, slot prediction (Eqs. 2–3) and special apps.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "fault/injector.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "mining/special_apps.hpp"
#include "model_equality.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::mining {
namespace {

/// 7-day hand-built trace (days 0–4 weekdays, 5–6 weekend under the
/// day-0-is-Monday convention): usage at hour 9 every weekday, hour 20
/// on 3 of 5 weekdays, hour 11 on weekends only; screen-off network
/// activity at hour 3 every day.
UserTrace fixture() {
  UserTrace t;
  t.user = 1;
  t.num_days = 7;
  t.app_names = {"im", "game"};
  for (int day = 0; day < 7; ++day) {
    const bool weekend = is_weekend(day);
    auto add_usage = [&](int hour, AppId app) {
      const TimeMs at = hour_start(day, hour) + 5 * kMsPerMinute;
      t.sessions.push_back({at, at + 30'000});
      t.usages.push_back({app, at, 10'000});
    };
    if (!weekend) {
      add_usage(9, 0);
      if (day < 3) add_usage(20, 0);
    } else {
      add_usage(11, 1);
    }
    // Screen-off network activity by app 0 at hour 3, every day.
    t.activities.push_back({0, hour_start(day, 3), 2000, 100, 10,
                            false, true});
  }
  return t;
}

TEST(HabitModel, PrActiveExactValues) {
  const HabitModel model = HabitModel::mine(fixture());
  const HourStats& wd = model.stats(DayKind::kWeekday);
  EXPECT_EQ(wd.days_observed, 5);
  EXPECT_DOUBLE_EQ(wd.pr_active[9], 1.0);
  EXPECT_DOUBLE_EQ(wd.pr_active[20], 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(wd.pr_active[11], 0.0);
  const HourStats& we = model.stats(DayKind::kWeekend);
  EXPECT_EQ(we.days_observed, 2);
  EXPECT_DOUBLE_EQ(we.pr_active[11], 1.0);
  EXPECT_DOUBLE_EQ(we.pr_active[9], 0.0);
}

TEST(HabitModel, ScreenOffNetworkStats) {
  const HabitModel model = HabitModel::mine(fixture());
  const HourStats& wd = model.stats(DayKind::kWeekday);
  // One of two apps active at hour 3 -> Eq. 3 value 0.5 per day.
  EXPECT_DOUBLE_EQ(wd.pr_net[3], 0.5);
  EXPECT_DOUBLE_EQ(wd.mean_net_count[3], 1.0);
  EXPECT_DOUBLE_EQ(wd.mean_net_bytes[3], 110.0);
  EXPECT_DOUBLE_EQ(wd.pr_net[9], 0.0);  // screen-on traffic excluded
}

TEST(HabitModel, PrActiveAtUsesDayRegime) {
  const HabitModel model = HabitModel::mine(fixture());
  EXPECT_DOUBLE_EQ(model.pr_active_at(hour_start(0, 9) + 5), 1.0);
  EXPECT_DOUBLE_EQ(model.pr_active_at(hour_start(5, 9) + 5), 0.0);
  EXPECT_DOUBLE_EQ(model.pr_active_at(hour_start(5, 11) + 5), 1.0);
  EXPECT_THROW(model.pr_active_at(-1), Error);
  EXPECT_THROW(model.pr_active(DayKind::kWeekday, 24), Error);
}

TEST(SlotPredictor, ThresholdSelectsSlots) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig cfg;
  cfg.delta_weekday = 0.5;
  cfg.delta_weekend = 0.5;
  const SlotPredictor pred(model, cfg);

  const DayPrediction day0 = pred.predict_day(0);  // weekday
  // Hours 9 (Pr=1) and 20 (Pr=0.6) exceed delta 0.5.
  EXPECT_TRUE(day0.active_slots.contains(hour_start(0, 9) + 1));
  EXPECT_TRUE(day0.active_slots.contains(hour_start(0, 20) + 1));
  EXPECT_FALSE(day0.active_slots.contains(hour_start(0, 11) + 1));
  // Hour 3 has screen-off traffic and is outside U -> net slot.
  EXPECT_TRUE(day0.net_slots.contains(hour_start(0, 3) + 1));
  EXPECT_FALSE(day0.net_slots.contains(hour_start(0, 9) + 1));
}

TEST(SlotPredictor, HigherDeltaShrinksSlots) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig strict;
  strict.delta_weekday = 0.8;  // excludes hour 20 (Pr = 0.6)
  strict.delta_weekend = 0.8;
  const SlotPredictor pred(model, strict);
  const DayPrediction day0 = pred.predict_day(0);
  EXPECT_TRUE(day0.active_slots.contains(hour_start(0, 9) + 1));
  EXPECT_FALSE(day0.active_slots.contains(hour_start(0, 20) + 1));
}

TEST(SlotPredictor, WeekdayWeekendDeltasIndependent) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig cfg;
  cfg.delta_weekday = 0.2;
  cfg.delta_weekend = 0.1;
  const SlotPredictor pred(model, cfg);
  EXPECT_DOUBLE_EQ(pred.delta_for_day(0), 0.2);
  EXPECT_DOUBLE_EQ(pred.delta_for_day(5), 0.1);
}

TEST(SlotPredictor, AdjacentHoursMergeIntoOneSlot) {
  UserTrace t = fixture();
  // Add usage at hour 10 every weekday so hours 9 and 10 both qualify.
  for (int day = 0; day < 5; ++day) {
    const TimeMs at = hour_start(day, 10) + kMsPerMinute;
    t.sessions.push_back({at, at + 5000});
    t.usages.push_back({0, at, 1000});
  }
  std::sort(t.sessions.begin(), t.sessions.end(),
            [](const ScreenSession& a, const ScreenSession& b) {
              return a.begin < b.begin;
            });
  std::sort(t.usages.begin(), t.usages.end(),
            [](const AppUsage& a, const AppUsage& b) {
              return a.time < b.time;
            });
  const SlotPredictor pred(HabitModel::mine(t), PredictorConfig{});
  const DayPrediction day0 = pred.predict_day(0);
  // Hours 9 and 10 merge into a single 2-hour slot.
  bool found = false;
  for (const Interval& iv : day0.active_slots.intervals()) {
    if (iv.begin == hour_start(0, 9) && iv.end == hour_start(0, 11)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SlotPredictor, ActiveProbabilityIntegral) {
  const HabitModel model = HabitModel::mine(fixture());
  const SlotPredictor pred(model, PredictorConfig{});
  // Over hour 9 of a weekday (Pr = 1): integral = 3600 prob-seconds.
  EXPECT_NEAR(pred.active_probability_integral(hour_start(0, 9),
                                               hour_start(0, 10)),
              3600.0, 1e-9);
  // Over hour 20 (Pr = 0.6): 2160.
  EXPECT_NEAR(pred.active_probability_integral(hour_start(0, 20),
                                               hour_start(0, 21)),
              2160.0, 1e-9);
  // Split across two hours uses per-hour values.
  const double mixed = pred.active_probability_integral(
      hour_start(0, 9) + 30 * kMsPerMinute,
      hour_start(0, 10) + 30 * kMsPerMinute);
  EXPECT_NEAR(mixed, 1800.0 * 1.0 + 1800.0 * 0.0, 1e-9);
  // Degenerate and invalid windows.
  EXPECT_DOUBLE_EQ(pred.active_probability_integral(100, 100), 0.0);
  EXPECT_THROW(pred.active_probability_integral(100, 50), Error);
}

TEST(SlotPredictor, RejectsBadDeltas) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig bad;
  bad.delta_weekday = 1.5;
  EXPECT_THROW(SlotPredictor(model, bad), Error);
  bad.delta_weekday = -0.1;
  EXPECT_THROW(SlotPredictor(model, bad), Error);
}

TEST(PredictionAccuracy, ExactOnFixture) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig cfg;
  cfg.delta_weekday = 0.5;
  cfg.delta_weekend = 0.5;
  const SlotPredictor pred(model, cfg);
  // Evaluate on the training trace itself: weekday usages at hours 9
  // (5x) and 20 (3x) are inside U; weekend usages at hour 11 (2x) are
  // inside weekend U. All 10 usages covered.
  EXPECT_DOUBLE_EQ(prediction_accuracy(pred, fixture()), 1.0);

  PredictorConfig strict;
  strict.delta_weekday = 0.8;
  strict.delta_weekend = 0.8;
  const SlotPredictor pred2(model, strict);
  // Hour-20 usages (3 of 10) now fall outside.
  EXPECT_DOUBLE_EQ(prediction_accuracy(pred2, fixture()), 0.7);
}

TEST(PredictionAccuracy, EmptyEvalIsPerfect) {
  const SlotPredictor pred(HabitModel::mine(fixture()),
                           PredictorConfig{});
  UserTrace empty = fixture();
  empty.usages.clear();
  EXPECT_DOUBLE_EQ(prediction_accuracy(pred, empty), 1.0);
}

TEST(SpecialApps, DetectionRequiresUsageAndNetwork) {
  const SpecialApps special = SpecialApps::detect(fixture());
  EXPECT_TRUE(special.is_special(0));   // used + networked
  EXPECT_FALSE(special.is_special(1));  // used, never networked
  EXPECT_EQ(special.count(), 1u);
}

TEST(SpecialApps, UnseenAppsDefaultSpecial) {
  const SpecialApps special = SpecialApps::detect(fixture());
  EXPECT_TRUE(special.is_special(99));  // newly installed
  EXPECT_FALSE(special.is_special(-1));
}

// Property: raising delta never grows the active slot set.
class DeltaMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(DeltaMonotonicity, ActiveSlotsShrinkWithDelta) {
  const auto user = synth::make_user(synth::Archetype::kStudent, 2);
  const UserTrace trace = synth::generate_trace(user, 14, 17);
  const HabitModel model = HabitModel::mine(trace);

  const double delta = GetParam();
  PredictorConfig lo_cfg, hi_cfg;
  lo_cfg.delta_weekday = lo_cfg.delta_weekend = delta;
  hi_cfg.delta_weekday = hi_cfg.delta_weekend = delta + 0.15;
  const SlotPredictor lo(model, lo_cfg);
  const SlotPredictor hi(model, hi_cfg);
  for (int day = 0; day < 7; ++day) {
    const DurationMs lo_len =
        lo.predict_day(day).active_slots.total_length();
    const DurationMs hi_len =
        hi.predict_day(day).active_slots.total_length();
    EXPECT_GE(lo_len, hi_len) << "day " << day << " delta " << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaGrid, DeltaMonotonicity,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7));

// ---- mine(UserTrace): direct fold vs the sanitize -> index path. -----

/// The repair path spelled out: sanitize, index, mine, scale by the
/// ledger's quality (1.0 * q == q exactly).
HabitModel mine_via_repair(const UserTrace& trace) {
  const fault::SanitizeResult repaired = fault::sanitize_trace(trace);
  HabitModel model = HabitModel::mine(engine::TraceIndex(repaired.trace));
  model.scale_confidence(repaired.report.quality());
  return model;
}

/// mine(trace) and whether it took the direct fold (no sanitize call,
/// one `mining.mine.direct` tick).
std::pair<HabitModel, bool> mine_counting_direct(const UserTrace& trace) {
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t direct = reg.counter("mining.mine.direct").value();
  const std::uint64_t sanitized =
      reg.counter("fault.sanitize.calls").value();
  HabitModel model = HabitModel::mine(trace);
  const std::uint64_t direct_delta =
      reg.counter("mining.mine.direct").value() - direct;
  const std::uint64_t sanitize_delta =
      reg.counter("fault.sanitize.calls").value() - sanitized;
  EXPECT_EQ(direct_delta + sanitize_delta, 1u);
  return {std::move(model), direct_delta == 1};
}

TEST(MineDirect, ValidTracesFoldDirectlyBitForBit) {
  const synth::Archetype archetypes[] = {
      synth::Archetype::kOfficeWorker, synth::Archetype::kNightOwl,
      synth::Archetype::kHeavyMessenger, synth::Archetype::kLightUser};
  for (const synth::Archetype arch : archetypes) {
    for (const std::uint64_t seed : {3u, 11u}) {
      const UserTrace trace =
          synth::generate_trace(synth::make_user(arch, 4), 14, seed);
      ASSERT_EQ(trace.first_violation(), nullptr);
      const std::string context = "archetype " +
                                  std::to_string(static_cast<int>(arch)) +
                                  " seed " + std::to_string(seed);
      const auto [model, direct] = mine_counting_direct(trace);
      EXPECT_TRUE(direct) << context;
      EXPECT_EQ(model.data_quality(), 1.0) << context;
      expect_models_bitwise_equal(model, mine_via_repair(trace), context);
    }
  }
  const auto [model, direct] = mine_counting_direct(fixture());
  EXPECT_TRUE(direct);
  expect_models_bitwise_equal(model, mine_via_repair(fixture()), "fixture");
}

TEST(MineDirect, FaultedTracesMatchTheRepairPath) {
  const UserTrace clean = synth::generate_trace(
      synth::make_user(synth::Archetype::kStudent, 5), 14, 23);
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      fault::FaultPlan plan;
      plan.seed = seed;
      plan.with(kind, 0.3);
      const UserTrace faulted = fault::inject_faults(clean, plan).trace;
      const std::string context = std::string(fault::kind_name(kind)) +
                                  " seed " + std::to_string(seed);
      const auto [model, direct] = mine_counting_direct(faulted);
      // The direct fold serves exactly the traces validate() accepts.
      EXPECT_EQ(direct, faulted.first_violation() == nullptr) << context;
      expect_models_bitwise_equal(model, mine_via_repair(faulted), context);
      // Kinds that damage records must be repaired, and the damage must
      // show in the model's confidence.
      if (kind == fault::FaultKind::kFieldCorruption ||
          kind == fault::FaultKind::kCounterReset ||
          kind == fault::FaultKind::kMissingScreenEdge) {
        EXPECT_FALSE(direct) << context;
        EXPECT_LT(model.data_quality(), 1.0) << context;
      }
    }
  }
}

TEST(MineDirect, EdgeCasesMatchTheRepairPath) {
  // Empty trace: num_days = 0 is invalid, so it is repaired (to one
  // empty day).
  {
    const auto [model, direct] = mine_counting_direct(UserTrace{});
    EXPECT_FALSE(direct);
    expect_models_bitwise_equal(model, mine_via_repair(UserTrace{}),
                                "empty trace");
  }
  // num_days = 0 with events: repaired, events past day 0 dropped.
  {
    UserTrace t = fixture();
    t.num_days = 0;
    const auto [model, direct] = mine_counting_direct(t);
    EXPECT_FALSE(direct);
    EXPECT_LT(model.data_quality(), 1.0);
    expect_models_bitwise_equal(model, mine_via_repair(t), "num_days 0");
  }
  // Days but no events: valid, folded directly into all-zero stats.
  {
    UserTrace t;
    t.num_days = 3;
    const auto [model, direct] = mine_counting_direct(t);
    EXPECT_TRUE(direct);
    EXPECT_EQ(model.training_days(), 3);
    expect_models_bitwise_equal(model, mine_via_repair(t), "no events");
  }
  // Unsorted activities: invalid, re-sorted by the repair.
  {
    UserTrace t = fixture();
    std::swap(t.activities[1], t.activities[4]);
    const auto [model, direct] = mine_counting_direct(t);
    EXPECT_FALSE(direct);
    expect_models_bitwise_equal(model, mine_via_repair(t), "unsorted");
  }
  // An activity starting exactly at a session's end is screen-off
  // (sessions are half-open), one at its begin is screen-on.
  {
    UserTrace t = fixture();
    const ScreenSession s = t.sessions[0];
    t.activities.insert(t.activities.begin() + 1,
                        {{1, s.begin, 1000, 7, 0, false, true},
                         {1, s.end, 1000, 5, 0, false, true}});
    ASSERT_EQ(t.first_violation(), nullptr);
    const auto [model, direct] = mine_counting_direct(t);
    EXPECT_TRUE(direct);
    expect_models_bitwise_equal(model, mine_via_repair(t), "session end");
    // Day 0 (a weekday) gains exactly the 5-byte transfer at hour 9.
    EXPECT_DOUBLE_EQ(model.stats(DayKind::kWeekday).mean_net_bytes[9],
                     5.0 / 5.0);
    EXPECT_DOUBLE_EQ(model.stats(DayKind::kWeekday).mean_net_count[9],
                     1.0 / 5.0);
  }
}

}  // namespace
}  // namespace netmaster::mining
