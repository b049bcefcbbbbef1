// Golden-figure equivalence for the unified eval pipeline: each §VI
// runner migrated onto EvalSession + the generic sweep driver must
// reproduce the pre-refactor (seed) runner's numbers bit for bit at
// every thread count, and a poisoned volunteer must surface as
// FleetFailure rows instead of aborting a sweep.
//
// The `legacy_*` helpers below are faithful copies of the seed
// runners' replay loops (per-profile shared state, hand-rolled
// accumulation in user order); they are the reference the fleet-backed
// runners are held to.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "eval/sweep.hpp"
#include "mining/habits.hpp"
#include "policy/baseline.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "policy/delay_batch.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"
#include "sched/solver.hpp"
#include "synth/presets.hpp"

namespace netmaster::eval {
namespace {

ExperimentConfig golden_config() {
  ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 2;
  cfg.seed = 42;
  return cfg;
}

std::vector<synth::UserProfile> golden_profiles() {
  return {synth::make_user(synth::Archetype::kOfficeWorker, 1),
          synth::make_user(synth::Archetype::kNightOwl, 2),
          synth::make_user(synth::Archetype::kLightUser, 3)};
}

// ---- Seed-runner reference implementations. --------------------------

struct LegacyShared {
  std::vector<VolunteerTraces> traces;
  std::vector<std::unique_ptr<engine::TraceIndex>> index;
  std::vector<sim::SimReport> baseline;
};

LegacyShared legacy_prepare(const std::vector<synth::UserProfile>& profiles,
                            const ExperimentConfig& config) {
  LegacyShared shared;
  const std::size_t n = profiles.size();
  shared.traces.resize(n);
  shared.index.resize(n);
  shared.baseline.resize(n);
  const RadioModel& radio = config.netmaster.profit.radio;
  for (std::size_t i = 0; i < n; ++i) {
    shared.traces[i] = make_traces(profiles[i], config);
    shared.index[i] =
        std::make_unique<engine::TraceIndex>(shared.traces[i].eval);
    const policy::BaselinePolicy baseline;
    shared.baseline[i] = sim::account(shared.traces[i].eval,
                                      baseline.run(*shared.index[i]), radio);
  }
  return shared;
}

template <typename MakePolicy>
SweepPoint legacy_sweep_point(double x, const LegacyShared& shared,
                              const ExperimentConfig& config,
                              MakePolicy&& make_policy) {
  SweepPoint point;
  point.x = x;
  const RadioModel& radio = config.netmaster.profit.radio;
  for (std::size_t i = 0; i < shared.index.size(); ++i) {
    const sim::SimReport& base = shared.baseline[i];
    const auto p = make_policy();
    const sim::SimReport rep = sim::account(
        shared.traces[i].eval, p->run(*shared.index[i]), radio);
    if (base.energy_j > 0.0) {
      point.energy_saving += 1.0 - rep.energy_j / base.energy_j;
    }
    if (base.radio_on_ms > 0) {
      point.radio_on_reduction +=
          1.0 - static_cast<double>(rep.radio_on_ms) /
                    static_cast<double>(base.radio_on_ms);
    }
    if (base.avg_down_rate_kbps > 0.0) {
      point.bandwidth_increase +=
          rep.avg_down_rate_kbps / base.avg_down_rate_kbps - 1.0;
    }
    point.affected_fraction += rep.affected_fraction;
  }
  const auto n = static_cast<double>(shared.index.size());
  point.energy_saving /= n;
  point.radio_on_reduction /= n;
  point.bandwidth_increase /= n;
  point.affected_fraction /= n;
  return point;
}

std::vector<SweepPoint> legacy_delay_sweep(
    const std::vector<synth::UserProfile>& profiles,
    const std::vector<double>& delays_s, const ExperimentConfig& config) {
  const LegacyShared shared = legacy_prepare(profiles, config);
  std::vector<SweepPoint> points(delays_s.size());
  for (std::size_t i = 0; i < delays_s.size(); ++i) {
    const double d = delays_s[i];
    if (d <= 0.0) {
      points[i] = legacy_sweep_point(d, shared, config, [] {
        return std::make_unique<policy::BaselinePolicy>();
      });
    } else {
      points[i] = legacy_sweep_point(d, shared, config, [d] {
        return std::make_unique<policy::DelayPolicy>(seconds(d));
      });
    }
  }
  return points;
}

std::vector<SweepPoint> legacy_batch_sweep(
    const std::vector<synth::UserProfile>& profiles,
    const std::vector<std::size_t>& sizes, const ExperimentConfig& config) {
  const LegacyShared shared = legacy_prepare(profiles, config);
  std::vector<SweepPoint> points(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    points[i] =
        legacy_sweep_point(static_cast<double>(n), shared, config, [n] {
          return std::make_unique<policy::BatchPolicy>(n);
        });
  }
  return points;
}

std::vector<ThresholdPoint> legacy_threshold_sweep(
    const std::vector<synth::UserProfile>& profiles,
    const std::vector<double>& deltas, const ExperimentConfig& config) {
  const LegacyShared shared = legacy_prepare(profiles, config);
  const RadioModel& radio = config.netmaster.profit.radio;

  std::vector<sim::SimReport> oracle_reports(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const policy::OraclePolicy oracle(config.netmaster.profit);
    oracle_reports[i] = sim::account(shared.traces[i].eval,
                                     oracle.run(*shared.index[i]), radio);
  }

  std::vector<ThresholdPoint> points(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    ThresholdPoint point;
    point.delta = deltas[i];
    for (std::size_t u = 0; u < profiles.size(); ++u) {
      const VolunteerTraces& traces = shared.traces[u];
      policy::NetMasterConfig nm = config.netmaster;
      nm.predictor.delta_weekday = deltas[i];
      nm.predictor.delta_weekend = deltas[i];
      nm.slot_powered_radio = true;
      const policy::NetMasterPolicy netmaster(traces.training, nm);
      point.accuracy +=
          mining::prediction_accuracy(netmaster.predictor(), traces.eval);

      const sim::SimReport& base = shared.baseline[u];
      const sim::SimReport rep = sim::account(
          traces.eval, netmaster.run(*shared.index[u]), radio);
      const sim::SimReport& orep = oracle_reports[u];
      const double saving = base.energy_j - rep.energy_j;
      const double oracle_saving = base.energy_j - orep.energy_j;
      if (oracle_saving > 0.0) {
        point.energy_saving += std::max(saving, 0.0) / oracle_saving;
      }
    }
    const auto n = static_cast<double>(profiles.size());
    point.accuracy /= n;
    point.energy_saving /= n;
    points[i] = point;
  }
  return points;
}

std::vector<AblationRow> legacy_ablation_study(
    const std::vector<synth::UserProfile>& profiles,
    const ExperimentConfig& config) {
  struct Variant {
    const char* name;
    bool prediction, duty, special;
  };
  const Variant variants[] = {
      {"full", true, true, true},
      {"no-prediction", false, true, true},
      {"no-duty-cycle", true, false, true},
      {"no-special-apps", true, true, false},
  };
  const LegacyShared shared = legacy_prepare(profiles, config);
  const RadioModel& radio = config.netmaster.profit.radio;

  std::vector<AblationRow> rows(std::size(variants));
  for (std::size_t v = 0; v < std::size(variants); ++v) {
    const Variant& variant = variants[v];
    AblationRow row;
    row.variant = variant.name;
    for (std::size_t u = 0; u < profiles.size(); ++u) {
      const VolunteerTraces& traces = shared.traces[u];
      policy::NetMasterConfig nm = config.netmaster;
      nm.enable_prediction = variant.prediction;
      nm.enable_duty = variant.duty;
      nm.enable_special_apps = variant.special;
      const policy::NetMasterPolicy p(traces.training, nm);
      const sim::SimReport& base = shared.baseline[u];
      const sim::SimReport rep = sim::account(
          traces.eval, p.run(*shared.index[u]), radio);
      if (base.energy_j > 0.0) {
        row.energy_saving += 1.0 - rep.energy_j / base.energy_j;
      }
      row.affected_fraction += rep.affected_fraction;
      row.mean_deferral_latency_s += rep.mean_deferral_latency_s;
      row.wake_count += static_cast<double>(rep.wake_count);
    }
    const auto n = static_cast<double>(profiles.size());
    row.energy_saving /= n;
    row.affected_fraction /= n;
    row.mean_deferral_latency_s /= n;
    row.wake_count /= n;
    rows[v] = row;
  }
  return rows;
}

/// Seed compare_policies: per-volunteer bespoke replay loop over the
/// hard-coded roster (baseline, oracle, NetMaster, delay&batch
/// 10/20/60 s).
VolunteerComparison legacy_compare_policies(
    const synth::UserProfile& profile, const ExperimentConfig& config) {
  const VolunteerTraces traces = make_traces(profile, config);
  const engine::TraceIndex index(traces.eval);
  const RadioModel& radio = config.netmaster.profit.radio;

  VolunteerComparison result;
  result.user = profile.id;
  result.profile_name = profile.name;
  const policy::BaselinePolicy baseline;
  result.baseline = sim::account(traces.eval, baseline.run(index), radio);

  auto make_row = [&](const policy::Policy& p) {
    ComparisonRow row;
    row.policy = p.name();
    row.report = sim::account(traces.eval, p.run(index), radio);
    if (result.baseline.energy_j > 0.0) {
      row.energy_saving =
          1.0 - row.report.energy_j / result.baseline.energy_j;
    }
    if (result.baseline.radio_on_ms > 0) {
      row.radio_on_fraction =
          static_cast<double>(row.report.radio_on_ms) /
          static_cast<double>(result.baseline.radio_on_ms);
    }
    auto ratio = [](double v, double base) {
      return base > 0.0 ? v / base : 0.0;
    };
    row.down_rate_ratio = ratio(row.report.avg_down_rate_kbps,
                                result.baseline.avg_down_rate_kbps);
    row.up_rate_ratio = ratio(row.report.avg_up_rate_kbps,
                              result.baseline.avg_up_rate_kbps);
    row.peak_down_ratio = ratio(row.report.peak_down_rate_kbps,
                                result.baseline.peak_down_rate_kbps);
    row.peak_up_ratio = ratio(row.report.peak_up_rate_kbps,
                              result.baseline.peak_up_rate_kbps);
    return row;
  };

  result.rows.push_back(make_row(baseline));
  result.rows.push_back(
      make_row(policy::OraclePolicy(config.netmaster.profit)));
  result.rows.push_back(
      make_row(policy::NetMasterPolicy(traces.training, config.netmaster)));
  for (const double d : {10.0, 20.0, 60.0}) {
    result.rows.push_back(make_row(policy::DelayBatchPolicy(seconds(d))));
  }
  return result;
}

void expect_points_identical(const std::vector<SweepPoint>& got,
                             const std::vector<SweepPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << "point " << i;
    EXPECT_EQ(got[i].energy_saving, want[i].energy_saving) << "point " << i;
    EXPECT_EQ(got[i].radio_on_reduction, want[i].radio_on_reduction)
        << "point " << i;
    EXPECT_EQ(got[i].bandwidth_increase, want[i].bandwidth_increase)
        << "point " << i;
    EXPECT_EQ(got[i].affected_fraction, want[i].affected_fraction)
        << "point " << i;
  }
}

// ---- Golden equivalence, serial and threaded. ------------------------

TEST(GoldenFigures, DelaySweepMatchesSeedRunnerBitForBit) {
  const ExperimentConfig cfg = golden_config();
  const auto profiles = golden_profiles();
  const std::vector<double> delays = {0.0, 10.0, 60.0, 300.0};

  const auto want = legacy_delay_sweep(profiles, delays, cfg);
  const EvalSession session(profiles, cfg);
  expect_points_identical(delay_sweep(session, delays, 1), want);
  expect_points_identical(delay_sweep(session, delays), want);
}

TEST(GoldenFigures, BatchSweepMatchesSeedRunnerBitForBit) {
  const ExperimentConfig cfg = golden_config();
  const auto profiles = golden_profiles();
  const std::vector<std::size_t> sizes = {0, 1, 3, 5};

  const auto want = legacy_batch_sweep(profiles, sizes, cfg);
  const EvalSession session(profiles, cfg);
  expect_points_identical(batch_sweep(session, sizes, 1), want);
  expect_points_identical(batch_sweep(session, sizes), want);
}

TEST(GoldenFigures, ThresholdSweepMatchesSeedRunnerBitForBit) {
  const ExperimentConfig cfg = golden_config();
  const auto profiles = golden_profiles();
  const std::vector<double> deltas = {0.1, 0.3};

  const auto want = legacy_threshold_sweep(profiles, deltas, cfg);
  const EvalSession session(profiles, cfg);
  for (const unsigned threads : {1u, 0u}) {
    const auto got = threshold_sweep(session, deltas, threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].delta, want[i].delta);
      EXPECT_EQ(got[i].accuracy, want[i].accuracy);
      EXPECT_EQ(got[i].energy_saving, want[i].energy_saving);
    }
  }
}

TEST(GoldenFigures, AblationStudyMatchesSeedRunnerBitForBit) {
  const ExperimentConfig cfg = golden_config();
  const auto profiles = golden_profiles();

  const auto want = legacy_ablation_study(profiles, cfg);
  const EvalSession session(profiles, cfg);
  for (const unsigned threads : {1u, 0u}) {
    const auto got = ablation_study(session, threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      EXPECT_EQ(got[v].variant, want[v].variant);
      EXPECT_EQ(got[v].energy_saving, want[v].energy_saving);
      EXPECT_EQ(got[v].affected_fraction, want[v].affected_fraction);
      EXPECT_EQ(got[v].mean_deferral_latency_s,
                want[v].mean_deferral_latency_s);
      EXPECT_EQ(got[v].wake_count, want[v].wake_count);
    }
  }
}

TEST(GoldenFigures, ComparisonMatchesSeedRunnerBitForBit) {
  const ExperimentConfig cfg = golden_config();
  for (const synth::UserProfile& profile : golden_profiles()) {
    const VolunteerComparison want = legacy_compare_policies(profile, cfg);
    const EvalSession session({profile}, cfg);
    const VolunteerComparison got = compare_all(session).front();
    ASSERT_EQ(got.rows.size(), want.rows.size());
    EXPECT_EQ(got.baseline.energy_j, want.baseline.energy_j);
    for (std::size_t r = 0; r < got.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r].report.energy_j, want.rows[r].report.energy_j)
          << profile.name << " / " << want.rows[r].policy;
      EXPECT_EQ(got.rows[r].energy_saving, want.rows[r].energy_saving);
      EXPECT_EQ(got.rows[r].radio_on_fraction,
                want.rows[r].radio_on_fraction);
      EXPECT_EQ(got.rows[r].down_rate_ratio, want.rows[r].down_rate_ratio);
      EXPECT_EQ(got.rows[r].peak_down_ratio, want.rows[r].peak_down_ratio);
    }
  }
}

TEST(GoldenFigures, SolverKnobDefaultMatchesExplicitFptasBitForBit) {
  // The solver-layer refactor must leave the default path untouched:
  // NetMaster with an untouched config and NetMaster with the solver
  // knob explicitly set to kFptas replay to identical reports, and the
  // alternate backends (greedy, auto) complete on real traces where
  // the exact DP would throw on byte-scale slot capacities.
  const ExperimentConfig cfg = golden_config();
  const EvalSession session(golden_profiles(), cfg);

  auto netmaster_spec = [](const char* name,
                           const policy::NetMasterConfig& nm) {
    PolicySpec spec;
    spec.name = name;
    spec.make = [nm](TrainingTrace training) {
      return std::make_unique<policy::NetMasterPolicy>(training.habits(),
                                                       nm);
    };
    return spec;
  };
  policy::NetMasterConfig explicit_fptas = cfg.netmaster;
  explicit_fptas.solver = sched::SolverChoice::kFptas;
  policy::NetMasterConfig greedy_nm = cfg.netmaster;
  greedy_nm.solver = sched::SolverChoice::kGreedy;
  policy::NetMasterConfig auto_nm = cfg.netmaster;
  auto_nm.solver = sched::SolverChoice::kAuto;

  const std::vector<PolicySpec> specs = {
      netmaster_spec("default", cfg.netmaster),
      netmaster_spec("fptas", explicit_fptas),
      netmaster_spec("greedy", greedy_nm),
      netmaster_spec("auto", auto_nm)};
  for (const unsigned threads : {1u, 0u}) {
    const FleetReport report = run_fleet(session, specs, threads);
    EXPECT_TRUE(report.failures.empty());
    for (std::size_t u = 0; u < report.num_users; ++u) {
      const FleetCell& def = report.at(u, 0);
      const FleetCell& fptas = report.at(u, 1);
      EXPECT_EQ(def.report.energy_j, fptas.report.energy_j);
      EXPECT_EQ(def.energy_saving, fptas.energy_saving);
      EXPECT_EQ(def.report.affected_fraction,
                fptas.report.affected_fraction);
      EXPECT_EQ(def.report.mean_deferral_latency_s,
                fptas.report.mean_deferral_latency_s);
      EXPECT_FALSE(report.at(u, 2).failed);
      EXPECT_FALSE(report.at(u, 3).failed);
    }
  }

  // The solver-ablation roster rides the same session: fptas / greedy /
  // auto columns, all completing, with the fptas column agreeing with
  // the default-config NetMaster cell grid above.
  const auto rows = solver_ablation_study(session);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].solver, "netmaster[fptas]");
  EXPECT_EQ(rows[1].solver, "netmaster[greedy]");
  EXPECT_EQ(rows[2].solver, "netmaster[auto]");
  double default_saving = 0.0;
  const FleetReport report = run_fleet(session, specs, 1);
  for (std::size_t u = 0; u < report.num_users; ++u) {
    default_saving += report.at(u, 0).energy_saving;
  }
  default_saving /= static_cast<double>(report.num_users);
  EXPECT_EQ(rows[0].energy_saving, default_saving);
}

// ---- Sweep driver semantics. -----------------------------------------

TEST(SweepDriver, SlicesMultiPolicyRostersPerPoint) {
  const ExperimentConfig cfg = golden_config();
  const EvalSession session(golden_profiles(), cfg);

  const std::vector<double> delays = {10.0, 20.0};
  const auto results = sweep(
      session, delays,
      [](double d) {
        std::vector<PolicySpec> specs;
        specs.push_back({"delay",
                         [d](const UserTrace&) {
                           return std::make_unique<policy::DelayPolicy>(
                               seconds(d));
                         },
                         {}});
        specs.push_back({"delay&batch",
                         [d](const UserTrace&) {
                           return std::make_unique<policy::DelayBatchPolicy>(
                               seconds(d));
                         },
                         {}});
        return specs;
      },
      [&](double d, const FleetReport& report) {
        EXPECT_EQ(report.num_users, session.num_users());
        EXPECT_EQ(report.num_policies, 2u);
        EXPECT_EQ(report.aggregates[0].policy, "delay");
        EXPECT_EQ(report.aggregates[1].policy, "delay&batch");
        return std::make_pair(d, report.aggregates[1].energy_saving.mean());
      });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].first, 10.0);
  EXPECT_EQ(results[1].first, 20.0);
  // A longer delay&batch window saves at least as much energy.
  EXPECT_LE(results[0].second, results[1].second + 1e-9);
}

TEST(SweepDriver, EmptyPointListIsANoOp) {
  const ExperimentConfig cfg = golden_config();
  const EvalSession session(golden_profiles(), cfg);
  const auto results = sweep(
      session, std::vector<double>{},
      [](double) { return std::vector<PolicySpec>{}; },
      [](double, const FleetReport&) { return 0; });
  EXPECT_TRUE(results.empty());
}

// ---- Failure isolation across a sweep. -------------------------------

TEST(SweepDriver, PoisonedVolunteerYieldsFailureRowsNotAnAbort) {
  const ExperimentConfig cfg = golden_config();
  std::vector<VolunteerTraces> volunteers;
  for (const synth::UserProfile& profile : golden_profiles()) {
    volunteers.push_back(make_traces(profile, cfg));
  }
  const UserId poisoned = volunteers[1].eval.user;
  volunteers[1].eval.num_days = 0;  // validate() rejects this outright
  ASSERT_THROW(volunteers[1].eval.validate(), Error);

  std::vector<VolunteerTraces> healthy = {volunteers[0], volunteers[2]};
  const EvalSession session(std::move(volunteers), cfg);
  EXPECT_TRUE(session.ok(0));
  EXPECT_FALSE(session.ok(1));
  EXPECT_TRUE(session.ok(2));
  EXPECT_EQ(session.num_ok(), 2u);
  EXPECT_FALSE(session.prep_error(1).empty());
  EXPECT_THROW(session.index(1), Error);
  EXPECT_THROW(session.baseline(1), Error);

  // Every sweep point reports the poisoned row as one FleetFailure and
  // still reduces over the two healthy users.
  const std::vector<double> delays = {0.0, 30.0, 120.0};
  const auto failures_per_point = sweep(
      session, delays,
      [](double d) {
        std::vector<PolicySpec> specs;
        specs.push_back({"delay",
                         [d](const UserTrace&) -> std::unique_ptr<policy::Policy> {
                           if (d <= 0.0) {
                             return std::make_unique<policy::BaselinePolicy>();
                           }
                           return std::make_unique<policy::DelayPolicy>(
                               seconds(d));
                         },
                         {}});
        return specs;
      },
      [](double, const FleetReport& report) { return report.failures; });
  ASSERT_EQ(failures_per_point.size(), delays.size());
  for (const auto& failures : failures_per_point) {
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].user, poisoned);
    EXPECT_TRUE(failures[0].policy.empty());  // whole row failed in prep
    EXPECT_FALSE(failures[0].error.empty());
  }

  // The figure runner's averages over the poisoned fleet equal the
  // healthy two-user fleet exactly — the bad row is excluded, not
  // smeared into the mean.
  const EvalSession healthy_session(std::move(healthy), cfg);
  expect_points_identical(delay_sweep(session, delays),
                          delay_sweep(healthy_session, delays));

  // And compare_all leaves the poisoned volunteer's rows empty.
  const auto comparisons = compare_all(session);
  ASSERT_EQ(comparisons.size(), 3u);
  EXPECT_FALSE(comparisons[0].rows.empty());
  EXPECT_TRUE(comparisons[1].rows.empty());
  EXPECT_FALSE(comparisons[2].rows.empty());
}

}  // namespace
}  // namespace netmaster::eval
