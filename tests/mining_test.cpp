// Tests for habit mining, slot prediction (Eqs. 2–3) and special apps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "testkit/injector.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "mining/special_apps.hpp"
#include "model_equality.hpp"
#include "obs/metrics.hpp"
#include "oracles/hour_buckets.hpp"
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

/// The per-hour loop that active_probability_integral replaced: one
/// pr_active_at lookup per hour segment.
double per_hour_integral(const HabitModel& model, TimeMs from, TimeMs to) {
  NM_REQUIRE(from >= 0 && to >= from, "integral bounds must be ordered");
  double integral = 0.0;
  TimeMs t = from;
  while (t < to) {
    const TimeMs hour_end = (t / kMsPerHour + 1) * kMsPerHour;
    const TimeMs seg_end = std::min(hour_end, to);
    integral += model.pr_active_at(t) * to_seconds(seg_end - t);
    t = seg_end;
  }
  return integral;
}

TEST(SlotPredictor, ActiveProbabilityIntegralMatchesThePerHourLoop) {
  // Bit for bit, over spans that cross hour, day and weekend
  // boundaries, start or end on them, or are zero-length, sub-hour or
  // the whole horizon.
  const auto profile = synth::make_user(synth::Archetype::kStudent, 3);
  const HabitModel model =
      HabitModel::mine(synth::generate_trace(profile, 14, 77));
  ASSERT_NE(model.stats(DayKind::kWeekday).pr_active,
            model.stats(DayKind::kWeekend).pr_active);
  const SlotPredictor pred(model, PredictorConfig{});
  const auto expect_same = [&](TimeMs from, TimeMs to) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  pred.active_probability_integral(from, to)),
              std::bit_cast<std::uint64_t>(per_hour_integral(model, from, to)))
        << "[" << from << ", " << to << ")";
  };
  const TimeMs horizon = 21 * kMsPerDay;
  std::mt19937_64 rng(20261023);
  for (int iter = 0; iter < 4000; ++iter) {
    TimeMs from = static_cast<TimeMs>(rng() % horizon);
    if (rng() % 4 == 0) from -= from % kMsPerHour;  // on an hour boundary
    if (rng() % 8 == 0) from -= from % kMsPerDay;   // on midnight
    DurationMs len = 0;
    switch (rng() % 4) {
      case 0: len = static_cast<DurationMs>(rng() % kMsPerHour); break;
      case 1: len = static_cast<DurationMs>(rng() % (3 * kMsPerDay)); break;
      case 2: len = static_cast<DurationMs>(rng() % (10 * kMsPerDay)); break;
      default: len = static_cast<DurationMs>(rng() % 3) * kMsPerHour; break;
    }
    expect_same(from, from + len);
  }
  expect_same(0, horizon);
  expect_same(0, 0);
  expect_same(horizon, horizon);
  expect_same(4 * kMsPerDay + 5, 5 * kMsPerDay + 5);  // into the weekend
  EXPECT_THROW(pred.active_probability_integral(-1, 10), Error);
  EXPECT_THROW(per_hour_integral(model, -1, 10), Error);
  EXPECT_THROW(pred.active_probability_integral(100, 50), Error);
  EXPECT_THROW(per_hour_integral(model, 100, 50), Error);
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

// ---- fold_buckets: the one bucket fold vs the total reference. ------

/// One day, two sessions, activities on both sides of every boundary.
UserTrace one_day_fixture() {
  UserTrace t;
  t.user = 7;
  t.num_days = 1;
  t.app_names = {"a", "b"};
  t.sessions = {{seconds(100), seconds(160)}, {seconds(300), seconds(400)}};
  t.usages = {{0, seconds(110), seconds(5)},
              {1, seconds(310), seconds(5)}};
  auto act = [](int app, TimeMs start, bool deferrable) {
    NetworkActivity n;
    n.app = static_cast<AppId>(app);
    n.start = start;
    n.duration = seconds(4);
    n.bytes_down = 1000;
    n.deferrable = deferrable;
    n.user_initiated = !deferrable;
    return n;
  };
  t.activities = {act(0, seconds(10), true),    // screen off
                  act(0, seconds(100), true),   // session edge: screen on
                  act(1, seconds(120), false),  // foreground
                  act(0, seconds(160), true),   // end edge: screen off
                  act(1, seconds(350), true),   // inside 2nd session
                  act(0, seconds(500), true)};  // tail, screen off
  return t;
}

void expect_buckets_equal(const HourBuckets& a, const HourBuckets& b,
                          const std::string& context) {
  ASSERT_EQ(a.num_apps, b.num_apps) << context;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << context;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].usage_count, b.cells[i].usage_count)
        << context << " bucket " << i;
    EXPECT_EQ(a.cells[i].net_count, b.cells[i].net_count)
        << context << " bucket " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cells[i].net_bytes),
              std::bit_cast<std::uint64_t>(b.cells[i].net_bytes))
        << context << " bucket " << i;
    EXPECT_EQ(a.cells[i].distinct_net_apps, b.cells[i].distinct_net_apps)
        << context << " bucket " << i;
  }
}

/// The fold against the reference, plus its totals: every usage and
/// screen-off activity of the valid trace is counted exactly once, and
/// no bucket counts more apps than activities.
void expect_fold_matches_reference(const UserTrace& t,
                                   const std::string& context) {
  const HourBuckets folded = fold_buckets(t);
  expect_buckets_equal(folded, oracles::fold_buckets_total(t), context);
  EXPECT_EQ(folded.num_days(), t.num_days) << context;
  std::size_t usages = 0;
  std::size_t screen_off = 0;
  for (const HourBucket& b : folded.cells) {
    EXPECT_LE(b.distinct_net_apps, b.net_count) << context;
    usages += static_cast<std::size_t>(b.usage_count);
    screen_off += static_cast<std::size_t>(b.net_count);
  }
  EXPECT_EQ(usages, t.usages.size()) << context;
  EXPECT_EQ(screen_off,
            static_cast<std::size_t>(std::count_if(
                t.activities.begin(), t.activities.end(),
                [&](const NetworkActivity& n) {
                  return !t.screen_on_at(n.start);
                })))
      << context;
}

TEST(HourBuckets, MatchManualRecount) {
  const HourBuckets buckets = fold_buckets(one_day_fixture());
  ASSERT_EQ(buckets.num_days(), 1);
  EXPECT_EQ(buckets.num_apps, 2u);
  const HourBucket& h0 = buckets.day(0)[0];
  // Both usages start in hour 0; the screen-off activities are the
  // trio at 10 s, 160 s (a session's end is screen-off) and 500 s, all
  // from app 0.
  EXPECT_EQ(h0.usage_count, 2);
  EXPECT_EQ(h0.net_count, 3);
  EXPECT_DOUBLE_EQ(h0.net_bytes, 3000.0);
  EXPECT_EQ(h0.distinct_net_apps, 1);
  for (int h = 1; h < kHoursPerDay; ++h) {
    EXPECT_EQ(buckets.day(0)[h].usage_count, 0) << h;
    EXPECT_EQ(buckets.day(0)[h].net_count, 0) << h;
  }
}

TEST(HourBuckets, DayAccessorRejectsOutOfRange) {
  const HourBuckets buckets = fold_buckets(one_day_fixture());
  EXPECT_THROW(buckets.day(-1), Error);
  EXPECT_THROW(buckets.day(1), Error);
  EXPECT_NO_THROW(buckets.day(0));
  EXPECT_THROW(HabitModel::mine(buckets, 0, 2), Error);
  EXPECT_THROW(HabitModel::mine(buckets, 1, 0), Error);
}

TEST(HourBuckets, FoldRejectsInvalidTracesLikeValidate) {
  UserTrace reversed = one_day_fixture();
  std::reverse(reversed.activities.begin(), reversed.activities.end());
  UserTrace no_days = one_day_fixture();
  no_days.num_days = 0;
  UserTrace too_many_days = one_day_fixture();
  too_many_days.num_days = kMaxTraceDays + 1;
  for (const UserTrace* t : {&reversed, &no_days, &too_many_days}) {
    std::string expected;
    try {
      t->validate();
    } catch (const Error& e) {
      expected = e.what();
    }
    ASSERT_FALSE(expected.empty());
    try {
      fold_buckets(*t);
      ADD_FAILURE() << "fold_buckets accepted: " << expected;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  // Reversal only permutes the records: sanitized, it folds to the
  // fixture's buckets.
  expect_buckets_equal(fold_buckets(fault::sanitize_trace(reversed).trace),
                       fold_buckets(one_day_fixture()), "reversed");
}

TEST(HourBuckets, FoldMatchesTheReferenceOnEveryArchetype) {
  for (int arch = 0; arch < 8; ++arch) {
    for (const std::uint64_t seed : {2u, 13u, 58u}) {
      const int days = 7 * (1 + static_cast<int>(seed % 3));
      const UserTrace t = synth::generate_trace(
          synth::make_user(static_cast<synth::Archetype>(arch), arch + 2),
          days, seed);
      expect_fold_matches_reference(t, "archetype " + std::to_string(arch) +
                                           " seed " + std::to_string(seed));
    }
  }
  expect_fold_matches_reference(fixture(), "fixture");
  expect_fold_matches_reference(one_day_fixture(), "one-day fixture");
}

TEST(HourBuckets, FoldMatchesTheReferenceOnSanitizedFaults) {
  for (const synth::Archetype arch :
       {synth::Archetype::kStudent, synth::Archetype::kHeavyMessenger}) {
    const UserTrace clean =
        synth::generate_trace(synth::make_user(arch, 3), 14, 41);
    for (const fault::FaultKind kind : fault::all_fault_kinds()) {
      for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.with(kind, 0.1 * static_cast<double>(seed));
        const UserTrace repaired =
            fault::sanitize_trace(fault::inject_faults(clean, plan).trace)
                .trace;
        expect_fold_matches_reference(
            repaired, std::string(fault::kind_name(kind)) + " seed " +
                          std::to_string(seed) + " archetype " +
                          std::to_string(static_cast<int>(arch)));
      }
    }
  }
}

// ---- mine(UserTrace): direct fold vs the sanitize -> reference path. --

/// The repair path spelled out: sanitize, fold with the total reference
/// (independent of the one-pass loop), mine, scale by the ledger's
/// quality (1.0 * q == q exactly).
HabitModel mine_via_repair(const UserTrace& trace) {
  const fault::SanitizeResult repaired = fault::sanitize_trace(trace);
  HabitModel model =
      HabitModel::mine(oracles::fold_buckets_total(repaired.trace), 0,
                       repaired.trace.num_days);
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


// ---- mine_habits: the one-pass miner vs its separate passes. --------

/// mine_habits(t) against the passes it fuses, bit for bit: the model
/// of HabitModel::mine and of the repair path spelled out (sanitize ->
/// reference fold -> mine, independent of the one-pass loop), the special
/// apps of SpecialApps::detect, and the direct path taken exactly when
/// UserTrace::first_violation() finds nothing.
void expect_one_pass_matches(const UserTrace& t, const std::string& context) {
  // A trace the repair cannot make valid (more than kMaxTraceDays days)
  // fails both ways with the same error.
  std::string repair_error;
  try {
    mine_via_repair(t);
  } catch (const Error& e) {
    repair_error = e.what();
  }
  if (!repair_error.empty()) {
    try {
      mine_habits(t);
      ADD_FAILURE() << context << ": mine_habits accepted the trace";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), repair_error) << context;
    }
    return;
  }
  obs::Counter& direct = obs::Registry::global().counter("mining.mine.direct");
  const std::uint64_t before = direct.value();
  const MinedHabits mined = mine_habits(t);
  EXPECT_EQ(direct.value() - before,
            t.first_violation() == nullptr ? 1u : 0u)
      << context;
  expect_models_bitwise_equal(mined.model, HabitModel::mine(t), context);
  expect_models_bitwise_equal(mined.model, mine_via_repair(t), context);
  EXPECT_EQ(mined.special.flags(), SpecialApps::detect(t).flags())
      << context;
}

TEST(MineHabits, RandomValidTracesMatchTheSeparatePasses) {
  for (int arch = 0; arch < 8; ++arch) {
    for (const std::uint64_t seed : {5u, 19u, 77u}) {
      const int days = 7 * (1 + static_cast<int>(seed % 3));
      const UserTrace trace = synth::generate_trace(
          synth::make_user(static_cast<synth::Archetype>(arch), arch + 1),
          days, seed);
      ASSERT_EQ(trace.first_violation(), nullptr);
      expect_one_pass_matches(trace, "archetype " + std::to_string(arch) +
                                         " seed " + std::to_string(seed));
    }
  }
  expect_one_pass_matches(fixture(), "fixture");
}

TEST(MineHabits, FaultedTracesMatchTheSeparatePasses) {
  const UserTrace clean = synth::generate_trace(
      synth::make_user(synth::Archetype::kHeavyMessenger, 6), 14, 31);
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      fault::FaultPlan plan;
      plan.seed = seed;
      plan.with(kind, 0.3);
      expect_one_pass_matches(fault::inject_faults(clean, plan).trace,
                              std::string(fault::kind_name(kind)) +
                                  " seed " + std::to_string(seed));
    }
  }
}

TEST(MineHabits, EveryViolationRuleTakesTheRepairPath) {
  // One planted violation per first_violation rule, each on the valid
  // fixture (7 days, apps 0 and 1, sessions at hours 9/11/20, one
  // screen-off activity at hour 3 of every day).
  struct Plant {
    const char* rule;
    void (*apply)(UserTrace&);
  };
  const Plant plants[] = {
      {"num_days 0", [](UserTrace& t) { t.num_days = 0; }},
      {"num_days > kMaxTraceDays",
       [](UserTrace& t) { t.num_days = kMaxTraceDays + 1; }},
      {"empty session",
       [](UserTrace& t) { t.sessions[2].end = t.sessions[2].begin; }},
      {"overlapping sessions",
       [](UserTrace& t) { t.sessions[3].begin = t.sessions[2].begin; }},
      {"session past the end",
       [](UserTrace& t) { t.sessions.back().end = t.trace_end() + 1; }},
      {"unsorted usages",
       [](UserTrace& t) { std::swap(t.usages[1], t.usages[4]); }},
      {"usage before 0", [](UserTrace& t) { t.usages[0].time = -1; }},
      {"usage at the end",
       [](UserTrace& t) { t.usages.back().time = t.trace_end(); }},
      {"negative usage duration",
       [](UserTrace& t) { t.usages[3].duration = -5; }},
      {"negative usage app", [](UserTrace& t) { t.usages[2].app = -1; }},
      {"usage app past the table",
       [](UserTrace& t) { t.usages[2].app = 2; }},
      {"unsorted activities",
       [](UserTrace& t) { std::swap(t.activities[0], t.activities[5]); }},
      {"activity before 0", [](UserTrace& t) { t.activities[0].start = -1; }},
      {"activity at the end",
       [](UserTrace& t) { t.activities.back().start = t.trace_end(); }},
      {"negative activity duration",
       [](UserTrace& t) { t.activities[2].duration = -1; }},
      {"activity past the end",
       [](UserTrace& t) {
         t.activities.back().duration =
             t.trace_end() - t.activities.back().start + 1;
       }},
      {"negative bytes down",
       [](UserTrace& t) { t.activities[1].bytes_down = -1; }},
      {"negative bytes up",
       [](UserTrace& t) { t.activities[1].bytes_up = -1; }},
      {"negative activity app",
       [](UserTrace& t) { t.activities[4].app = -3; }},
      {"activity app past the table",
       [](UserTrace& t) { t.activities[4].app = 7; }},
  };
  for (const Plant& plant : plants) {
    UserTrace t = fixture();
    plant.apply(t);
    ASSERT_NE(t.first_violation(), nullptr) << plant.rule;
    expect_one_pass_matches(t, plant.rule);
  }
  // The last record of each stream is checked too: a violation there
  // follows a fully folded prefix that must be dropped.
  UserTrace t = fixture();
  t.activities.push_back(t.activities.back());
  t.activities.back().app = 9;
  expect_one_pass_matches(t, "violation in the last activity");
}

TEST(MineHabits, ActivityEndCheckDoesNotOverflow) {
  // A duration that would overflow start + duration is rejected, not
  // wrapped into a "valid" trace.
  UserTrace t = fixture();
  t.activities[0].duration = std::numeric_limits<DurationMs>::max();
  ASSERT_NE(t.first_violation(), nullptr);
  expect_one_pass_matches(t, "overflowing duration");
}

}  // namespace
}  // namespace netmaster::mining
