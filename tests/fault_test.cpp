// Unit tests for the fault-injection subsystem: plan/injector
// determinism, the per-kind corruption surfaces, and the sanitizer's
// repair guarantees (valid output, honest ledger, clean passthrough).
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "testkit/fault_plan.hpp"
#include "testkit/injector.hpp"
#include "fault/sanitize.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::fault {
namespace {

UserTrace sample_trace(std::uint64_t seed = 5) {
  return synth::generate_trace(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), 7, seed);
}

bool traces_equal(const UserTrace& a, const UserTrace& b) {
  return a.user == b.user && a.num_days == b.num_days &&
         a.app_names == b.app_names && a.sessions == b.sessions &&
         a.usages == b.usages && a.activities == b.activities;
}

// ---- Plan / taxonomy. ------------------------------------------------

TEST(FaultPlan, KindNamesAreDistinct) {
  std::set<std::string> names;
  for (const FaultKind kind : all_fault_kinds()) {
    names.insert(kind_name(kind));
  }
  EXPECT_EQ(names.size(), kNumFaultKinds);
}

TEST(FaultPlan, BuilderAppendsInOrder) {
  FaultPlan plan;
  plan.seed = 9;
  plan.with(FaultKind::kClockSkew, 0.1).with(FaultKind::kDropRecord, 0.05);
  ASSERT_EQ(plan.specs.size(), 2u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kClockSkew);
  EXPECT_DOUBLE_EQ(plan.specs[1].rate, 0.05);
}

// ---- Injector. -------------------------------------------------------

TEST(Injector, RejectsRatesOutsideUnitInterval) {
  const UserTrace clean = sample_trace();
  FaultPlan plan;
  plan.with(FaultKind::kDropRecord, -0.1);
  EXPECT_THROW(inject_faults(clean, plan), Error);
  plan.specs[0].rate = 1.5;
  EXPECT_THROW(inject_faults(clean, plan), Error);
}

TEST(Injector, ZeroRatePlanIsIdentity) {
  const UserTrace clean = sample_trace();
  FaultPlan plan;
  for (const FaultKind kind : all_fault_kinds()) plan.with(kind, 0.0);
  const InjectionResult out = inject_faults(clean, plan);
  EXPECT_TRUE(traces_equal(out.trace, clean));
  EXPECT_EQ(out.log.total(), 0u);
}

TEST(Injector, SamePlanSameCorruptionBytes) {
  // Reproducibility is the whole point of the declarative plan: the
  // same (trace, plan) must corrupt identically on every run.
  const UserTrace clean = sample_trace();
  FaultPlan plan;
  plan.seed = 1234;
  plan.with(FaultKind::kDropRecord, 0.1)
      .with(FaultKind::kFieldCorruption, 0.2)
      .with(FaultKind::kClockSkew, 0.3);
  const InjectionResult a = inject_faults(clean, plan);
  const InjectionResult b = inject_faults(clean, plan);
  EXPECT_TRUE(traces_equal(a.trace, b.trace));
  EXPECT_EQ(a.log.injected, b.log.injected);
}

TEST(Injector, DifferentSeedsDiverge) {
  const UserTrace clean = sample_trace();
  FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.with(FaultKind::kDropRecord, 0.2);
  b.with(FaultKind::kDropRecord, 0.2);
  EXPECT_FALSE(traces_equal(inject_faults(clean, a).trace,
                            inject_faults(clean, b).trace));
}

TEST(Injector, EveryKindReportsInjections) {
  // At a healthy rate on a dense trace, every fault kind must actually
  // do something and log it.
  const UserTrace clean = sample_trace();
  for (const FaultKind kind : all_fault_kinds()) {
    FaultPlan plan;
    plan.seed = 77;
    plan.with(kind, 0.5);
    const InjectionResult out = inject_faults(clean, plan);
    EXPECT_GT(out.log.count(kind), 0u) << kind_name(kind);
    EXPECT_EQ(out.log.total(), out.log.count(kind)) << kind_name(kind);
  }
}

TEST(Injector, TruncateDaysAlwaysKeepsOneDay) {
  const UserTrace clean = sample_trace();
  FaultPlan plan;
  plan.with(FaultKind::kTruncateDays, 1.0);
  const InjectionResult out = inject_faults(clean, plan);
  EXPECT_EQ(out.trace.num_days, 1);
  EXPECT_NO_THROW(out.trace.validate());
}

TEST(Injector, CounterResetMakesByteDeltasNegative) {
  const UserTrace clean = sample_trace();
  FaultPlan plan;
  plan.with(FaultKind::kCounterReset, 1.0);
  const InjectionResult out = inject_faults(clean, plan);
  ASSERT_FALSE(out.trace.activities.empty());
  for (const NetworkActivity& a : out.trace.activities) {
    EXPECT_LT(a.bytes_down, 0);
    EXPECT_LT(a.bytes_up, 0);
  }
}

// ---- Sanitizer. ------------------------------------------------------

TEST(Sanitize, ValidTracePassesThroughBitIdentically) {
  const UserTrace clean = sample_trace();
  const SanitizeResult out = sanitize_trace(clean);
  EXPECT_TRUE(out.report.clean());
  EXPECT_DOUBLE_EQ(out.report.quality(), 1.0);
  EXPECT_TRUE(traces_equal(out.trace, clean));
}

TEST(Sanitize, RepairsEveryFaultKindToValidity) {
  // The core guarantee: whatever the injector emits, the sanitizer's
  // output satisfies validate(), and non-trivial corruption leaves a
  // non-clean ledger.
  const UserTrace clean = sample_trace();
  for (const FaultKind kind : all_fault_kinds()) {
    for (const double rate : {0.1, 0.4, 0.9}) {
      FaultPlan plan;
      plan.seed = 31;
      plan.with(kind, rate);
      const InjectionResult injected = inject_faults(clean, plan);
      const SanitizeResult out = sanitize_trace(injected.trace);
      EXPECT_NO_THROW(out.trace.validate())
          << kind_name(kind) << " rate " << rate;
      EXPECT_GE(out.report.quality(), 0.0);
      EXPECT_LE(out.report.quality(), 1.0);
    }
  }
}

TEST(Sanitize, RepairsAllKindsStacked) {
  const UserTrace clean = sample_trace();
  FaultPlan plan;
  plan.seed = 99;
  for (const FaultKind kind : all_fault_kinds()) plan.with(kind, 0.3);
  const InjectionResult injected = inject_faults(clean, plan);
  const SanitizeResult out = sanitize_trace(injected.trace);
  EXPECT_NO_THROW(out.trace.validate());
  EXPECT_FALSE(out.report.clean());
  EXPECT_LT(out.report.quality(), 1.0);
}

TEST(Sanitize, DropsUnknownAppsAndOutOfHorizonEvents) {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.usages = {{0, 100, 10},            // fine
              {5, 200, 10},            // unknown app: dropped
              {0, 2 * kMsPerDay, 10},  // past horizon: dropped
              {-1, 300, 10}};          // negative app: dropped
  const SanitizeResult out = sanitize_trace(t);
  EXPECT_EQ(out.trace.usages.size(), 1u);
  EXPECT_EQ(out.report.dropped_events, 3u);
  EXPECT_NO_THROW(out.trace.validate());
}

TEST(Sanitize, ClampsNegativeBytesAndClipsAtHorizon) {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.activities = {{0, 100, 50, -500, -2, false, true},
                  {0, kMsPerDay - 10, 100, 5, 5, false, true}};
  const SanitizeResult out = sanitize_trace(t);
  ASSERT_EQ(out.trace.activities.size(), 2u);
  EXPECT_EQ(out.trace.activities[0].bytes_down, 0);
  EXPECT_EQ(out.trace.activities[0].bytes_up, 0);
  EXPECT_EQ(out.trace.activities[1].duration, 10);
  EXPECT_EQ(out.report.clamped_events, 2u);
  EXPECT_NO_THROW(out.trace.validate());
}

TEST(Sanitize, MergesOverlappingSessionsAndDropsStubs) {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.sessions = {{100, 500}, {400, 900}, {900, 900}, {2000, 1500}};
  const SanitizeResult out = sanitize_trace(t);
  ASSERT_EQ(out.trace.sessions.size(), 1u);
  EXPECT_EQ(out.trace.sessions[0].begin, 100);
  EXPECT_EQ(out.trace.sessions[0].end, 900);
  EXPECT_EQ(out.report.merged_sessions, 1u);
  EXPECT_EQ(out.report.dropped_events, 2u);  // the two empty stubs
  EXPECT_NO_THROW(out.trace.validate());
}

TEST(Sanitize, ResortsOutOfOrderStreams) {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.usages = {{0, 500, 10}, {0, 100, 10}};
  t.activities = {{0, 900, 10, 1, 1, false, true},
                  {0, 200, 10, 1, 1, false, true}};
  const SanitizeResult out = sanitize_trace(t);
  EXPECT_EQ(out.report.resorted_streams, 2u);
  EXPECT_EQ(out.trace.usages.front().time, 100);
  EXPECT_EQ(out.trace.activities.front().start, 200);
  EXPECT_NO_THROW(out.trace.validate());
}

TEST(Sanitize, RepairsNonPositiveDayCount) {
  UserTrace t;
  t.user = 1;
  t.num_days = 0;
  t.app_names = {"a"};
  const SanitizeResult out = sanitize_trace(t);
  EXPECT_EQ(out.trace.num_days, 1);
  EXPECT_TRUE(out.report.day_count_repaired);
  EXPECT_NO_THROW(out.trace.validate());
}

TEST(Sanitize, QualityScoreWeighsDropsOverClamps) {
  SanitizeReport rep;
  rep.total_events = 10;
  rep.dropped_events = 2;
  rep.clamped_events = 2;
  EXPECT_DOUBLE_EQ(rep.quality(), 1.0 - (2.0 + 1.0) / 10.0);
  EXPECT_FALSE(rep.clean());
  SanitizeReport all_lost;
  all_lost.total_events = 4;
  all_lost.dropped_events = 4;
  all_lost.clamped_events = 4;  // degenerate: floor at 0
  EXPECT_DOUBLE_EQ(all_lost.quality(), 0.0);
}

}  // namespace
}  // namespace netmaster::fault
