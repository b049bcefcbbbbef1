// Drift suite (ROADMAP item 5): incremental-miner equivalence with the
// batch miner, drift-detector true/false-positive behaviour over the
// synthetic drift archetypes, the policy-level drift confidence gate,
// and the online re-mine-on-drift adaptation loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "daemon/loadgen.hpp"
#include "daemon/user_session.hpp"
#include "engine/trace_index.hpp"
#include "eval/session.hpp"
#include "fault/sanitize.hpp"
#include "mining/drift.hpp"
#include "mining/habits.hpp"
#include "mining/incremental.hpp"
#include "model_equality.hpp"
#include "policy/netmaster.hpp"
#include "service/model_lifecycle.hpp"
#include "service/online_sim.hpp"
#include "synth/drift.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "testkit/fault_plan.hpp"
#include "testkit/injector.hpp"

namespace netmaster {
namespace {

constexpr synth::Archetype kAllArchetypes[] = {
    synth::Archetype::kOfficeWorker,   synth::Archetype::kStudent,
    synth::Archetype::kNightOwl,       synth::Archetype::kCommuter,
    synth::Archetype::kRetiree,        synth::Archetype::kHeavyMessenger,
    synth::Archetype::kWeekendWarrior, synth::Archetype::kLightUser,
};
constexpr std::uint64_t kSeeds[] = {1, 7, 31};

/// Folds every day of `buckets` into `miner`, in order.
void observe_all(mining::IncrementalHabitMiner& miner,
                 const mining::HourBuckets& buckets) {
  for (int d = 0; d < buckets.num_days(); ++d) miner.observe_day(d, buckets);
}

// ---- Incremental miner: batch equivalence. ---------------------------

TEST(IncrementalMiner, DecayZeroReproducesBatchBitForBit) {
  for (const synth::Archetype arch : kAllArchetypes) {
    for (const std::uint64_t seed : kSeeds) {
      const synth::UserProfile profile = synth::make_user(arch, 1);
      const UserTrace trace = synth::generate_trace(profile, 14, seed);
      const mining::HourBuckets buckets = mining::fold_buckets(trace);

      const mining::HabitModel batch = mining::HabitModel::mine(trace);
      mining::IncrementalHabitMiner miner;  // decay = 0
      observe_all(miner, buckets);
      expect_models_bitwise_equal(
          batch, miner.snapshot(),
          "archetype " + profile.name + " seed " + std::to_string(seed));
    }
  }
}

TEST(IncrementalMiner, WindowedBatchMineMatchesFullMine) {
  const UserTrace trace = synth::generate_trace(
      synth::make_user(synth::Archetype::kStudent, 2), 21, 9);
  const mining::HourBuckets buckets = mining::fold_buckets(trace);
  expect_models_bitwise_equal(mining::HabitModel::mine(trace),
                              mining::HabitModel::mine(buckets, 0, 21),
                              "full window");

  // A strict sub-window equals incremental observation of those days.
  mining::IncrementalHabitMiner miner;
  for (int d = 7; d < 18; ++d) miner.observe_day(d, buckets);
  expect_models_bitwise_equal(mining::HabitModel::mine(buckets, 7, 18),
                              miner.snapshot(), "days [7, 18)");
}

TEST(IncrementalMiner, DecayShiftsEstimatesTowardRecentDays) {
  // Office-worker days then night-owl days: a decayed miner's daytime
  // pr_active must fall below the undecayed miner's, and its estimate
  // of late-night activity must exceed it.
  const synth::UserProfile office =
      synth::make_user(synth::Archetype::kOfficeWorker, 1);
  const UserTrace early = synth::generate_trace(office, 14, 3);
  const UserTrace late = synth::generate_trace(
      synth::make_user(synth::Archetype::kNightOwl, 1), 14, 4);
  mining::IncrementalHabitMiner plain;
  mining::IncrementalHabitMiner decayed({0.3});
  for (const UserTrace* t : {&early, &late}) {
    const mining::HourBuckets buckets = mining::fold_buckets(*t);
    observe_all(plain, buckets);
    observe_all(decayed, buckets);
  }
  ASSERT_EQ(plain.days_observed(), 28);
  EXPECT_LT(decayed.effective_days(mining::DayKind::kWeekday),
            plain.effective_days(mining::DayKind::kWeekday));
  // Hour 23 is the night owl's prime time, hour 10 the office worker's.
  EXPECT_GT(decayed.pr_active(mining::DayKind::kWeekday, 23),
            plain.pr_active(mining::DayKind::kWeekday, 23));
  EXPECT_LT(decayed.pr_active(mining::DayKind::kWeekday, 10),
            plain.pr_active(mining::DayKind::kWeekday, 10));
}

TEST(IncrementalMiner, DuplicateDayFoldsLeaveDecayZeroEstimatesExact) {
  // The streaming daemon promises at-most-once folds; this pins down
  // what a violation would do: a duplicated day doubles the evidence
  // weight but (at decay 0) leaves every estimate bit-identical,
  // because sums and weight scale by exactly the same power of two.
  const UserTrace trace = synth::generate_trace(
      synth::make_user(synth::Archetype::kCommuter, 3), 7, 5);
  const mining::HourBuckets buckets = mining::fold_buckets(trace);
  const auto day = mining::IncrementalHabitMiner::summarize_day(
      1, buckets.day(1), buckets.num_apps);

  mining::IncrementalHabitMiner once;
  once.observe_summary(day);
  mining::IncrementalHabitMiner twice;
  twice.observe_summary(day);
  twice.observe_summary(day);

  EXPECT_EQ(twice.days_observed(day.kind), 2);
  EXPECT_EQ(twice.effective_days(day.kind), 2.0);
  for (int h = 0; h < kHoursPerDay; ++h) {
    EXPECT_EQ(twice.pr_active(day.kind, h), once.pr_active(day.kind, h))
        << "h" << h;
    EXPECT_EQ(twice.pr_net(day.kind, h), once.pr_net(day.kind, h))
        << "h" << h;
    EXPECT_EQ(twice.mean_intensity(day.kind, h),
              once.mean_intensity(day.kind, h))
        << "h" << h;
  }
}

TEST(IncrementalMiner, OutOfOrderFoldsAgreeAtDecayZero) {
  // Decay-0 counters are plain sums, so fold order only moves rounding
  // in the last ulp — day counts are exact and estimates agree to a
  // tight relative tolerance.
  const UserTrace trace = synth::generate_trace(
      synth::make_user(synth::Archetype::kStudent, 4), 7, 11);
  const mining::HourBuckets buckets = mining::fold_buckets(trace);

  mining::IncrementalHabitMiner forward;
  for (int d = 0; d < 7; ++d) forward.observe_day(d, buckets);
  mining::IncrementalHabitMiner shuffled;
  for (const int d : {4, 0, 6, 2, 5, 1, 3}) {
    shuffled.observe_day(d, buckets);
  }

  EXPECT_EQ(shuffled.days_observed(), forward.days_observed());
  for (const mining::DayKind kind :
       {mining::DayKind::kWeekday, mining::DayKind::kWeekend}) {
    EXPECT_EQ(shuffled.effective_days(kind), forward.effective_days(kind));
    for (int h = 0; h < kHoursPerDay; ++h) {
      EXPECT_NEAR(shuffled.pr_active(kind, h), forward.pr_active(kind, h),
                  1e-12)
          << "h" << h;
      EXPECT_NEAR(shuffled.mean_intensity(kind, h),
                  forward.mean_intensity(kind, h), 1e-9)
          << "h" << h;
    }
  }
}

TEST(IncrementalMiner, AdoptCountersCopiesStateAcrossDecayConfigs) {
  const UserTrace trace = synth::generate_trace(
      synth::make_user(synth::Archetype::kHeavyMessenger, 5), 14, 13);
  const mining::HourBuckets buckets = mining::fold_buckets(trace);

  mining::IncrementalHabitMiner source({0.2});
  observe_all(source, buckets);
  mining::IncrementalHabitMiner sink({0.05});
  sink.observe_day(0, buckets);  // pre-existing state must be replaced

  sink.adopt_counters(source);
  // The adopted counters are a verbatim copy; only the decay config
  // (future folds) differs.
  EXPECT_EQ(sink.config().decay, 0.05);
  EXPECT_EQ(sink.days_observed(), source.days_observed());
  for (const mining::DayKind kind :
       {mining::DayKind::kWeekday, mining::DayKind::kWeekend}) {
    EXPECT_EQ(sink.effective_days(kind), source.effective_days(kind));
    for (int h = 0; h < kHoursPerDay; ++h) {
      EXPECT_EQ(sink.pr_active(kind, h), source.pr_active(kind, h));
      EXPECT_EQ(sink.pr_net(kind, h), source.pr_net(kind, h));
      EXPECT_EQ(sink.mean_intensity(kind, h),
                source.mean_intensity(kind, h));
    }
  }
}

TEST(IncrementalMiner, RescaleWeightsMovesInertiaNotEstimates) {
  const UserTrace trace = synth::generate_trace(
      synth::make_user(synth::Archetype::kRetiree, 6), 14, 17);
  mining::IncrementalHabitMiner miner;
  observe_all(miner, mining::fold_buckets(trace));
  std::array<double, kHoursPerDay> before{};
  for (int h = 0; h < kHoursPerDay; ++h) {
    before[h] = miner.pr_active(mining::DayKind::kWeekday, h);
  }

  miner.rescale_weights(30.0);
  EXPECT_DOUBLE_EQ(miner.effective_days(mining::DayKind::kWeekday), 30.0);
  EXPECT_DOUBLE_EQ(miner.effective_days(mining::DayKind::kWeekend), 30.0);
  for (int h = 0; h < kHoursPerDay; ++h) {
    // Ratios survive the common rescale up to rounding.
    EXPECT_DOUBLE_EQ(miner.pr_active(mining::DayKind::kWeekday, h),
                     before[h])
        << "h" << h;
  }

  // An empty miner has nothing to rescale: weights stay zero.
  mining::IncrementalHabitMiner empty;
  empty.rescale_weights(30.0);
  EXPECT_EQ(empty.effective_days(mining::DayKind::kWeekday), 0.0);
}

TEST(IncrementalMiner, RejectsInvalidConfig) {
  EXPECT_THROW(mining::IncrementalHabitMiner({1.0}), Error);
  EXPECT_THROW(mining::IncrementalHabitMiner({-0.1}), Error);
  EXPECT_THROW(
      mining::IncrementalHabitMiner(
          {std::numeric_limits<double>::quiet_NaN()}),
      Error);
}

// ---- Single-day regime confidence (the k/(k+1) = 0.5 edge). ----------

TEST(SlotConfidence, SingleDayRegimeStaysBelowDefaultGate) {
  // One day pins p to 0 or 1, so the binomial shrink vanishes and the
  // raw k/(k+1) factor alone would report 0.5 — above the default
  // min_confidence of 0.25 for history that is barely evidence.
  const policy::RobustnessConfig gate;
  EXPECT_LT(mining::slot_confidence(1.0, 1.0), gate.min_confidence);
  EXPECT_LT(mining::slot_confidence(1.0, 0.0), gate.min_confidence);
  // Two clean days already clear it (0.666 * (1 - 0.5·√2⁻¹) ≈ 0.43...
  // at worst p = 0.5).
  EXPECT_GT(mining::slot_confidence(2.0, 0.0), gate.min_confidence);
  // Fractional effective days from a decayed history count as weak.
  EXPECT_LT(mining::slot_confidence(0.8, 1.0),
            mining::slot_confidence(2.0, 1.0));
}

TEST(SlotConfidence, OneDayModelTripsTheRobustnessGate) {
  // End to end: a model mined from one day must not clear the default
  // confidence gate even with min_training_days relaxed.
  const UserTrace trace = synth::generate_trace(
      synth::make_user(synth::Archetype::kHeavyMessenger, 1), 1, 5);
  const mining::HabitModel model = mining::HabitModel::mine(trace);
  ASSERT_EQ(model.training_days(), 1);
  const policy::RobustnessConfig gate;
  EXPECT_LT(model.overall_confidence(), gate.min_confidence);
}

// ---- Synthetic drift archetypes. -------------------------------------

TEST(SynthDrift, NoneKindIsBitIdenticalToStationary) {
  const synth::UserProfile profile =
      synth::make_user(synth::Archetype::kCommuter, 3);
  const UserTrace plain = synth::generate_trace(profile, 21, 11);
  synth::DriftSpec spec;  // kNone
  const UserTrace drifted =
      synth::generate_drifting_trace(profile, spec, 21, 11);
  EXPECT_EQ(plain.sessions.size(), drifted.sessions.size());
  EXPECT_EQ(plain.usages.size(), drifted.usages.size());
  EXPECT_EQ(plain.activities.size(), drifted.activities.size());
  for (std::size_t i = 0; i < plain.sessions.size(); ++i) {
    EXPECT_EQ(plain.sessions[i].begin, drifted.sessions[i].begin);
    EXPECT_EQ(plain.sessions[i].end, drifted.sessions[i].end);
  }
  for (std::size_t i = 0; i < plain.activities.size(); ++i) {
    EXPECT_EQ(plain.activities[i].start, drifted.activities[i].start);
    EXPECT_EQ(plain.activities[i].bytes_down,
              drifted.activities[i].bytes_down);
  }
}

TEST(SynthDrift, AlphaSchedulesMatchTheirKind) {
  synth::DriftSpec spec;
  spec.onset_day = 5;
  spec.max_alpha = 0.8;

  spec.kind = synth::DriftKind::kAbrupt;
  EXPECT_EQ(synth::drift_alpha(spec, 4), 0.0);
  EXPECT_EQ(synth::drift_alpha(spec, 5), 0.8);
  EXPECT_EQ(synth::drift_alpha(spec, 30), 0.8);

  spec.kind = synth::DriftKind::kGradual;
  spec.ramp_days = 4;
  EXPECT_EQ(synth::drift_alpha(spec, 4), 0.0);
  EXPECT_NEAR(synth::drift_alpha(spec, 5), 0.2, 1e-12);
  EXPECT_NEAR(synth::drift_alpha(spec, 7), 0.6, 1e-12);
  EXPECT_EQ(synth::drift_alpha(spec, 9), 0.8);
  EXPECT_EQ(synth::drift_alpha(spec, 60), 0.8);

  spec.kind = synth::DriftKind::kSeasonal;
  spec.period_days = 3;
  EXPECT_EQ(synth::drift_alpha(spec, 4), 0.0);
  EXPECT_EQ(synth::drift_alpha(spec, 5), 0.8);   // first drifted block
  EXPECT_EQ(synth::drift_alpha(spec, 7), 0.8);
  EXPECT_EQ(synth::drift_alpha(spec, 8), 0.0);   // back to base
  EXPECT_EQ(synth::drift_alpha(spec, 11), 0.8);  // drifted again
}

TEST(SynthDrift, BlendMovesIntensityBetweenArchetypes) {
  const synth::UserProfile office =
      synth::make_user(synth::Archetype::kOfficeWorker, 1);
  const synth::UserProfile owl =
      synth::make_user(synth::Archetype::kNightOwl, 1);
  const synth::UserProfile half = synth::blend_profiles(office, owl, 0.5);
  for (int h = 0; h < kHoursPerDay; ++h) {
    EXPECT_NEAR(half.weekday_intensity[h],
                0.5 * (office.weekday_intensity[h] +
                       owl.weekday_intensity[h]),
                1e-12);
  }
  EXPECT_EQ(half.apps.size(), office.apps.size());
  EXPECT_THROW(synth::blend_profiles(office, owl, 1.5), Error);
}

TEST(SynthDrift, SpecValidationRejectsBadKnobs) {
  const synth::UserProfile profile =
      synth::make_user(synth::Archetype::kStudent, 1);
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kAbrupt;
  spec.max_alpha = 1.5;
  EXPECT_THROW(synth::generate_drifting_trace(profile, spec, 7, 1), Error);
  spec.max_alpha = 1.0;
  spec.ramp_days = 0;
  EXPECT_THROW(synth::drift_alpha(spec, 3), Error);
}

// ---- Drift detector: true positives. ---------------------------------

mining::DriftDetector seeded_detector(const UserTrace& train) {
  mining::DriftDetector detector;
  detector.observe_all(mining::fold_buckets(train));
  detector.notify_adapted();
  return detector;
}

TEST(DriftDetector, AlarmsWithinDaysOfAnAbruptChange) {
  // Office worker flips to night-owl habits at eval day 0. Detector is
  // seeded with 14 stationary days, then fed drifted days; it must
  // alarm within the first week and localize the onset near day 0.
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 14;
  for (const std::uint64_t seed : kSeeds) {
    cfg.seed = seed;
    synth::DriftSpec spec;
    spec.kind = synth::DriftKind::kAbrupt;
    spec.onset_day = 0;
    const eval::VolunteerTraces traces = eval::make_drifting_traces(
        synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg, spec);

    mining::DriftDetector detector =
        seeded_detector(traces.training);
    const mining::HourBuckets eval_buckets = mining::fold_buckets(traces.eval);
    int alarm_after = -1;
    for (int d = 0; d < cfg.eval_days; ++d) {
      detector.observe_day(d, eval_buckets);
      if (detector.alarmed()) {
        alarm_after = d;
        break;
      }
    }
    ASSERT_GE(alarm_after, 0) << "no alarm, seed " << seed;
    EXPECT_LE(alarm_after, 7) << "seed " << seed;
    EXPECT_GE(detector.score(), 0.5) << "seed " << seed;
    // Changepoint estimate: at or after the true onset, not far past.
    EXPECT_GE(detector.changepoint_day(), 0) << "seed " << seed;
    EXPECT_LE(detector.changepoint_day(), alarm_after) << "seed " << seed;
  }
}

TEST(DriftDetector, AlarmsOnAGradualShift) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 21;
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kGradual;
  spec.onset_day = 0;
  spec.ramp_days = 10;
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(synth::Archetype::kCommuter, 1), cfg, spec);

  mining::DriftDetector detector =
      seeded_detector(traces.training);
  detector.observe_all(mining::fold_buckets(traces.eval));
  EXPECT_TRUE(detector.alarmed());
}

TEST(DriftDetector, StaysQuietOnEveryStationaryArchetype) {
  // False-positive check: 14 seeded + 14 monitored stationary days for
  // all 8 archetypes x 3 seeds must never alarm, and the reported
  // score stays low.
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 14;
  for (const synth::Archetype arch : kAllArchetypes) {
    for (const std::uint64_t seed : kSeeds) {
      cfg.seed = seed;
      const eval::VolunteerTraces traces = eval::make_traces(
          synth::make_user(arch, 1), cfg);
      mining::DriftDetector detector =
          seeded_detector(traces.training);
      detector.observe_all(mining::fold_buckets(traces.eval));
      const std::string context = "archetype " +
                                  std::to_string(static_cast<int>(arch)) +
                                  " seed " + std::to_string(seed);
      EXPECT_FALSE(detector.alarmed())
          << context << " score " << detector.score() << " ph wk "
          << detector.ph_statistic(mining::DayKind::kWeekday) << " ph we "
          << detector.ph_statistic(mining::DayKind::kWeekend);
      EXPECT_LT(detector.score(), 1.0) << context;
    }
  }
}

TEST(DriftDetector, NotifyAdaptedClearsTheAlarm) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 14;
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kAbrupt;
  spec.onset_day = 0;
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg, spec);

  mining::DriftDetector detector =
      seeded_detector(traces.training);
  const mining::HourBuckets eval_buckets = mining::fold_buckets(traces.eval);
  detector.observe_all(eval_buckets);
  ASSERT_TRUE(detector.alarmed());
  detector.notify_adapted();
  EXPECT_FALSE(detector.alarmed());
  EXPECT_EQ(detector.alarm_day(), -1);
  EXPECT_EQ(detector.score(), 0.0);
}

// ---- Online adaptation loop. -----------------------------------------

TEST(OnlineAdaptation, DisabledAdaptationIsBitIdentical) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 7;
  const eval::VolunteerTraces traces = eval::make_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg);
  const engine::TraceIndex index(traces.eval);

  const service::OnlineSimResult plain =
      service::run_online(traces.training, traces.eval, index,
                          cfg.netmaster);
  service::AdaptationConfig off;  // enable = false
  const service::OnlineSimResult gated =
      service::run_online(traces.training, traces.eval, index,
                          cfg.netmaster, off);

  ASSERT_EQ(plain.outcome.transfers.size(),
            gated.outcome.transfers.size());
  for (std::size_t i = 0; i < plain.outcome.transfers.size(); ++i) {
    EXPECT_EQ(plain.outcome.transfers[i].start,
              gated.outcome.transfers[i].start);
  }
  EXPECT_EQ(plain.events_processed, gated.events_processed);
  EXPECT_EQ(gated.drift_alarms, 0u);
  EXPECT_EQ(gated.model_refreshes, 0u);
  EXPECT_EQ(gated.final_drift_score, 0.0);
}

TEST(OnlineAdaptation, RefreshesTheModelAfterAbruptDrift) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 14;
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kAbrupt;
  spec.onset_day = 0;
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg, spec);
  const engine::TraceIndex index(traces.eval);

  service::AdaptationConfig adapt;
  adapt.enable = true;
  const service::OnlineSimResult result =
      service::run_online(traces.training, traces.eval, index,
                          cfg.netmaster, adapt);

  EXPECT_GE(result.drift_alarms, 1u);
  EXPECT_GE(result.model_refreshes, 1u);
  EXPECT_GE(result.first_alarm_day, 0);
  EXPECT_LE(result.first_alarm_day, 7);
  // Post-adaptation the detector is re-anchored: the final score must
  // not still be screaming.
  EXPECT_LT(result.final_drift_score, 1.0);
}

TEST(OnlineAdaptation, StationaryRunNeverRefreshes) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 14;
  for (const std::uint64_t seed : kSeeds) {
    cfg.seed = seed;
    const eval::VolunteerTraces traces = eval::make_traces(
        synth::make_user(synth::Archetype::kStudent, 1), cfg);
    const engine::TraceIndex index(traces.eval);
    service::AdaptationConfig adapt;
    adapt.enable = true;
    const service::OnlineSimResult result =
        service::run_online(traces.training, traces.eval, index,
                            cfg.netmaster, adapt);
    EXPECT_EQ(result.drift_alarms, 0u) << "seed " << seed;
    EXPECT_EQ(result.model_refreshes, 0u) << "seed " << seed;
  }
}

TEST(OnlineAdaptation, AnchorMatchesTheSanitizedFoldOnCleanAndFaultyTraces) {
  // anchor folds a valid training trace as it is and sanitizes only a
  // trace with a violation. sanitize_trace passes a valid trace through
  // unchanged, so either way the detector must score every observed day
  // exactly as one seeded from the sanitized trace's fold.
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 10;
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kAbrupt;
  spec.onset_day = 0;
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg, spec);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.with(fault::FaultKind::kDuplicateRecord, 0.05)
      .with(fault::FaultKind::kReorderRecords, 0.05);
  const UserTrace faulty =
      fault::inject_faults(traces.training, plan).trace;
  ASSERT_EQ(traces.training.first_violation(), nullptr);
  ASSERT_NE(faulty.first_violation(), nullptr);

  const mining::HourBuckets eval_buckets = mining::fold_buckets(traces.eval);
  service::AdaptationConfig adapt;
  adapt.enable = true;
  for (const UserTrace* training : {&traces.training, &faulty}) {
    service::ModelLifecycle lifecycle(adapt, cfg.netmaster.robustness);
    lifecycle.anchor(*training);
    mining::DriftDetector reference;
    reference.observe_all(
        mining::fold_buckets(fault::sanitize_trace(*training).trace));
    reference.notify_adapted();
    double peak = 0.0;
    for (int day = 0; day < eval_buckets.num_days(); ++day) {
      const mining::DayContribution summary =
          mining::IncrementalHabitMiner::summarize_day(
              day, eval_buckets.day(day), eval_buckets.num_apps);
      lifecycle.observe_summary(day, summary);
      reference.observe_summary(day, summary);
      EXPECT_EQ(lifecycle.score(), reference.score()) << "day " << day;
      peak = std::max(peak, reference.score());
    }
    EXPECT_GT(peak, 0.0);  // the drift makes the comparison bite
  }
}

TEST(OnlineAdaptation, EventLoopAndDaemonDriveOneLifecycle) {
  // run_online (evaluation index, midnight ticks) and the daemon's
  // UserSession (streamed records, 2-day fold windows) drive the same
  // ModelLifecycle. On the same users they must raise the same alarms,
  // adopt the same refreshes and end on the same detector score, bit
  // for bit — including the last evaluation day, which no midnight
  // tick follows.
  constexpr int kTrainDays = 14;
  constexpr int kEvalDays = 14;
  policy::NetMasterConfig config;
  config.solver = sched::SolverChoice::kGreedy;
  service::AdaptationConfig adapt;
  adapt.enable = true;
  for (const synth::DriftKind kind :
       {synth::DriftKind::kNone, synth::DriftKind::kAbrupt,
        synth::DriftKind::kGradual, synth::DriftKind::kSeasonal}) {
    for (const synth::Archetype archetype :
         {synth::Archetype::kOfficeWorker, synth::Archetype::kStudent,
          synth::Archetype::kNightOwl, synth::Archetype::kLightUser}) {
      for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
        const std::string context =
            "drift " + std::to_string(static_cast<int>(kind)) +
            " archetype " + std::to_string(static_cast<int>(archetype)) +
            " seed " + std::to_string(seed);
        synth::DriftSpec spec;
        spec.kind = kind;
        spec.onset_day = kTrainDays;
        const UserTrace full = synth::generate_drifting_trace(
            synth::make_user(archetype, 1), spec, kTrainDays + kEvalDays,
            seed);
        const UserTrace eval = full.slice_days(kTrainDays, kEvalDays);
        const service::OnlineSimResult online = service::run_online(
            full.slice_days(0, kTrainDays), eval, engine::TraceIndex(eval),
            config, adapt);

        daemon::UserSessionConfig session_config;
        session_config.user = full.user;
        session_config.train_days = kTrainDays;
        session_config.num_days = kTrainDays + kEvalDays;
        session_config.app_names = full.app_names;
        daemon::UserSession session(session_config, config, adapt);
        std::vector<daemon::LoadEvent> events;
        daemon::append_trace_events(full, full.user, events);
        daemon::sort_events(events);
        for (const daemon::LoadEvent& e : events) session.ingest(e.record);
        session.finish();

        EXPECT_EQ(online.drift_alarms, session.stats().alarms) << context;
        EXPECT_EQ(online.model_refreshes, session.stats().refreshes)
            << context;
        EXPECT_EQ(online.final_drift_score, session.stats().drift_score)
            << context;
      }
    }
  }
}

// ---- Calibration diagnostics (always passes; prints the signal). -----

TEST(DriftCalibration, PrintSignalLevels) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 14;
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kAbrupt;
  spec.onset_day = 0;
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7},
                                   std::uint64_t{31}, std::uint64_t{42}}) {
    cfg.seed = seed;
    const eval::VolunteerTraces drifted = eval::make_drifting_traces(
        synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg, spec);
    const eval::VolunteerTraces still = eval::make_traces(
        synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg);

    for (const auto* traces : {&still, &drifted}) {
      mining::DriftDetector detector =
          seeded_detector(traces->training);
      const mining::HourBuckets eval_buckets =
          mining::fold_buckets(traces->eval);
      std::printf("%s seed %llu:\n",
                  traces == &still ? "stationary" : "abrupt",
                  static_cast<unsigned long long>(seed));
      for (int d = 0; d < cfg.eval_days; ++d) {
        detector.observe_day(d, eval_buckets);
        const mining::DayKind kind = mining::day_kind(d);
        std::printf(
            "  day %2d kind %d div %.4f mean %.4f ph %.4f score %.3f "
            "alarmed %d\n",
            d, static_cast<int>(kind), detector.divergence(kind),
            detector.mean_divergence(kind), detector.ph_statistic(kind),
            detector.score(), detector.alarmed() ? 1 : 0);
      }
    }
  }
}

}  // namespace
}  // namespace netmaster
