// Tests for the evaluation layer: table formatting and experiment
// runners (smoke-level; the heavy sweeps are exercised by the benches).
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "eval/battery.hpp"
#include "eval/experiments.hpp"
#include "eval/table.hpp"
#include "synth/presets.hpp"

namespace netmaster::eval {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 2;
  cfg.seed = 5;
  return cfg;
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsMismatchedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Csv, EmitsRowsAndValidates) {
  std::ostringstream os;
  print_csv(os, {"x", "y"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
  std::ostringstream os2;
  EXPECT_THROW(print_csv(os2, {"a"}, {{"has,comma"}}), Error);
}

TEST(MakeTraces, SplitsTrainEval) {
  const auto profile = synth::make_user(synth::Archetype::kLightUser, 1);
  const VolunteerTraces traces = make_traces(profile, tiny_config());
  EXPECT_EQ(traces.training.num_days, 7);
  EXPECT_EQ(traces.eval.num_days, 2);
  EXPECT_NO_THROW(traces.training.validate());
  EXPECT_NO_THROW(traces.eval.validate());
}

TEST(MakeTraces, RequiresWholeWeekTraining) {
  ExperimentConfig cfg = tiny_config();
  cfg.train_days = 10;
  const auto profile = synth::make_user(synth::Archetype::kLightUser, 1);
  EXPECT_THROW(make_traces(profile, cfg), Error);
}

TEST(CompareAll, ProducesExpectedRows) {
  const EvalSession session(
      {synth::make_user(synth::Archetype::kOfficeWorker, 1)},
      tiny_config());
  const VolunteerComparison cmp = compare_all(session).front();
  ASSERT_EQ(cmp.rows.size(), 6u);
  EXPECT_EQ(cmp.rows[0].policy, "baseline");
  EXPECT_EQ(cmp.rows[1].policy, "oracle");
  EXPECT_EQ(cmp.rows[2].policy, "netmaster");
  EXPECT_DOUBLE_EQ(cmp.rows[0].energy_saving, 0.0);
  // NetMaster and the oracle must clearly beat the baseline.
  EXPECT_GT(cmp.rows[1].energy_saving, 0.3);
  EXPECT_GT(cmp.rows[2].energy_saving, 0.3);
  // Bandwidth utilization rises when radio-on shrinks.
  EXPECT_GT(cmp.rows[2].down_rate_ratio, 1.0);
  // Peak rates are schedule-invariant.
  EXPECT_NEAR(cmp.rows[2].peak_down_ratio, 1.0, 1e-9);
}

TEST(DelaySweep, MonotoneUserImpact) {
  const EvalSession session(
      {synth::make_user(synth::Archetype::kOfficeWorker, 1)},
      tiny_config());
  const auto points = delay_sweep(session, {0, 30, 300});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].affected_fraction, 0.0);
  EXPECT_LE(points[1].affected_fraction, points[2].affected_fraction);
  EXPECT_LE(points[0].energy_saving, points[2].energy_saving + 1e-9);
}

TEST(BatchSweep, SizeZeroAndOneAreNeutral) {
  const EvalSession session(
      {synth::make_user(synth::Archetype::kLightUser, 1)}, tiny_config());
  const auto points = batch_sweep(session, {0, 1, 4});
  EXPECT_NEAR(points[0].energy_saving, 0.0, 1e-9);
  EXPECT_NEAR(points[1].energy_saving, 0.0, 1e-9);
  EXPECT_GT(points[2].energy_saving, 0.0);
}

TEST(ThresholdSweep, AccuracyFallsSavingRises) {
  const EvalSession session(
      {synth::make_user(synth::Archetype::kOfficeWorker, 1)},
      tiny_config());
  const auto points = threshold_sweep(session, {0.05, 0.45});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GE(points[0].accuracy, points[1].accuracy);
  EXPECT_LE(points[0].energy_saving, points[1].energy_saving + 0.05);
}

TEST(Battery, FractionPerDay) {
  // A full charge burned over one day is exactly 100%.
  EXPECT_DOUBLE_EQ(battery_fraction_per_day(kBatteryJoules, 1), 1.0);
  // Half a charge over two days: 25% per day.
  EXPECT_DOUBLE_EQ(battery_fraction_per_day(kBatteryJoules / 2.0, 2),
                   0.25);
  EXPECT_DOUBLE_EQ(battery_fraction_per_day(0.0, 7), 0.0);
  // The reference battery is a 2014-class pack (~28.7 kJ).
  EXPECT_NEAR(kBatteryJoules, 28'728.0, 1.0);
}

TEST(AblationStudy, ReportsAllVariants) {
  const EvalSession session({synth::make_user(synth::Archetype::kStudent, 2)},
                            tiny_config());
  const auto rows = ablation_study(session);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].variant, "full");
  // The full system has prediction-scale latency; the no-prediction
  // variant leans on frequent duty wake-ups.
  EXPECT_GT(rows[1].wake_count, rows[0].wake_count);
}

}  // namespace
}  // namespace netmaster::eval
