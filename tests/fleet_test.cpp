// Tests for eval::run_fleet: grid shape and addressing, aggregate
// consistency with the cells, agreement with the per-volunteer
// comparison path, and thread-count determinism.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "synth/presets.hpp"

namespace netmaster::eval {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 3;
  cfg.seed = 42;
  return cfg;
}

std::vector<synth::UserProfile> small_fleet() {
  return {synth::make_user(synth::Archetype::kOfficeWorker, 1),
          synth::make_user(synth::Archetype::kNightOwl, 2),
          synth::make_user(synth::Archetype::kLightUser, 3)};
}

TEST(Fleet, GridShapeAndBaselineReference) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(small_fleet(), suite, cfg);

  ASSERT_EQ(report.num_users, 3u);
  ASSERT_EQ(report.num_policies, suite.size());
  ASSERT_EQ(report.cells.size(), report.num_users * report.num_policies);
  ASSERT_EQ(report.aggregates.size(), suite.size());

  for (std::size_t u = 0; u < report.num_users; ++u) {
    for (std::size_t p = 0; p < report.num_policies; ++p) {
      const FleetCell& cell = report.cell(u, p);
      EXPECT_EQ(cell.policy, suite[p].name);
      EXPECT_GT(cell.report.energy_j, 0.0);
    }
    // Policy 0 is the baseline: saving 0 against itself, radio-on
    // fraction exactly 1.
    const FleetCell& base = report.cell(u, 0);
    EXPECT_DOUBLE_EQ(base.energy_saving, 0.0);
    EXPECT_DOUBLE_EQ(base.radio_on_fraction, 1.0);
  }
}

TEST(Fleet, AggregatesFoldTheCells) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(small_fleet(), suite, cfg);

  for (std::size_t p = 0; p < report.num_policies; ++p) {
    const FleetAggregate& agg = report.aggregates[p];
    EXPECT_EQ(agg.policy, suite[p].name);
    EXPECT_EQ(agg.energy_saving.count(), report.num_users);
    double saving_sum = 0.0;
    double energy_sum = 0.0;
    for (std::size_t u = 0; u < report.num_users; ++u) {
      saving_sum += report.cell(u, p).energy_saving;
      energy_sum += report.cell(u, p).report.energy_j;
    }
    EXPECT_NEAR(agg.energy_saving.mean(),
                saving_sum / static_cast<double>(report.num_users), 1e-12);
    EXPECT_NEAR(agg.total_energy_j, energy_sum, 1e-9);
  }
}

TEST(Fleet, MatchesPerVolunteerComparison) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const FleetReport report = run_fleet(users, suite, cfg);

  // compare_policies runs the same suite in the same order (baseline,
  // oracle, netmaster, delay&batch 10/20/60) on the same traces.
  for (std::size_t u = 0; u < users.size(); ++u) {
    const VolunteerComparison comparison = compare_policies(users[u], cfg);
    ASSERT_EQ(comparison.rows.size(), suite.size());
    for (std::size_t p = 0; p < suite.size(); ++p) {
      EXPECT_DOUBLE_EQ(report.cell(u, p).report.energy_j,
                       comparison.rows[p].report.energy_j)
          << users[u].name << " / " << suite[p].name;
      EXPECT_DOUBLE_EQ(report.cell(u, p).energy_saving,
                       comparison.rows[p].energy_saving);
    }
  }
}

TEST(Fleet, DeterministicAcrossThreadCounts) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const FleetReport serial = run_fleet(users, suite, cfg, 1);
  const FleetReport threaded = run_fleet(users, suite, cfg, 4);

  ASSERT_EQ(serial.cells.size(), threaded.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    EXPECT_EQ(serial.cells[c].policy, threaded.cells[c].policy);
    EXPECT_EQ(serial.cells[c].report.energy_j,
              threaded.cells[c].report.energy_j);
    EXPECT_EQ(serial.cells[c].report.radio_on_ms,
              threaded.cells[c].report.radio_on_ms);
    EXPECT_EQ(serial.cells[c].energy_saving,
              threaded.cells[c].energy_saving);
  }
}

TEST(Fleet, FusedGraphMatchesStagedSessionAtEveryWorkerCount) {
  // The fused run_fleet path (one graph: trace_gen -> prepare -> cells
  // per user, no stage barrier) must be bit-identical to building the
  // session first and running the grid over it — at every worker count.
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const EvalSession session(users, cfg, 1);
  const FleetReport staged = run_fleet(session, suite, 1);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const FleetReport fused = run_fleet(users, suite, cfg, threads);
    ASSERT_EQ(fused.cells.size(), staged.cells.size()) << threads;
    for (std::size_t c = 0; c < staged.cells.size(); ++c) {
      EXPECT_EQ(fused.cells[c].policy, staged.cells[c].policy);
      EXPECT_EQ(fused.cells[c].report.energy_j,
                staged.cells[c].report.energy_j)
          << "threads=" << threads << " cell=" << c;
      EXPECT_EQ(fused.cells[c].report.radio_on_ms,
                staged.cells[c].report.radio_on_ms);
      EXPECT_EQ(fused.cells[c].energy_saving,
                staged.cells[c].energy_saving);
      EXPECT_EQ(fused.cells[c].report.affected_usages,
                staged.cells[c].report.affected_usages);
    }
    ASSERT_EQ(fused.aggregates.size(), staged.aggregates.size());
    for (std::size_t p = 0; p < staged.aggregates.size(); ++p) {
      EXPECT_EQ(fused.aggregates[p].total_energy_j,
                staged.aggregates[p].total_energy_j);
    }
  }
}

TEST(Fleet, RejectsEmptyPolicySuite) {
  const ExperimentConfig cfg = small_config();
  EXPECT_THROW(run_fleet(small_fleet(), {}, cfg), Error);
}

TEST(Fleet, BoundsCheckedAtMatchesRawCell) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(small_fleet(), suite, cfg);

  for (std::size_t u = 0; u < report.num_users; ++u) {
    for (std::size_t p = 0; p < report.num_policies; ++p) {
      EXPECT_EQ(&report.at(u, p), &report.cell(u, p));
    }
  }
  EXPECT_THROW(report.at(report.num_users, 0), Error);
  EXPECT_THROW(report.at(0, report.num_policies), Error);

  // A truncated grid is caught even when the indexes look in-range.
  FleetReport truncated = report;
  truncated.cells.resize(truncated.cells.size() - 1);
  EXPECT_THROW(
      truncated.at(truncated.num_users - 1, truncated.num_policies - 1),
      Error);
}

TEST(Fleet, SessionIsReusableAcrossRuns) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const EvalSession session(small_fleet(), cfg);

  ASSERT_EQ(session.num_users(), 3u);
  EXPECT_EQ(session.num_ok(), 3u);
  for (std::size_t u = 0; u < session.num_users(); ++u) {
    EXPECT_TRUE(session.ok(u));
    EXPECT_GT(session.baseline(u).energy_j, 0.0);
    EXPECT_EQ(session.index(u).trace().user, session.user_id(u));
  }

  // Two runs over the same session agree with the throwaway-session
  // entry point bit for bit — the cache changes cost, not results.
  const FleetReport fresh = run_fleet(small_fleet(), suite, cfg);
  const FleetReport first = run_fleet(session, suite);
  const FleetReport second = run_fleet(session, suite);
  ASSERT_EQ(first.cells.size(), fresh.cells.size());
  for (std::size_t c = 0; c < fresh.cells.size(); ++c) {
    EXPECT_EQ(first.cells[c].report.energy_j, fresh.cells[c].report.energy_j);
    EXPECT_EQ(first.cells[c].report.energy_j,
              second.cells[c].report.energy_j);
    EXPECT_EQ(first.cells[c].energy_saving, second.cells[c].energy_saving);
  }
}

/// Finished `engine.index_build` spans, under any parent, so far.
std::uint64_t index_builds() {
  obs::flush_thread_spans();
  std::uint64_t count = 0;
  for (const auto& row : obs::Registry::global().span_rows()) {
    if (row.name == "engine.index_build") count += row.stats.count;
  }
  return count;
}

TEST(Fleet, GridMinesEachNetMasterColumnOnceWithoutIndexing) {
  // Exact work counters of one grid over a resident session with two
  // NetMaster columns: every cell mines its model straight from the
  // valid training trace, so the grid builds no index at all (the
  // session indexed the evaluation traces up front).
  const ExperimentConfig cfg = small_config();
  std::vector<PolicySpec> suite = standard_policy_suite(cfg.netmaster);
  suite.push_back(solver_ablation_suite(cfg.netmaster)[1]);  // greedy
  const EvalSession session(small_fleet(), cfg);

  obs::Registry& reg = obs::Registry::global();
  obs::Counter& mined = reg.counter("policy.netmaster.models_mined");
  obs::Counter& direct = reg.counter("mining.mine.direct");
  const std::uint64_t builds_before = index_builds();
  const std::uint64_t mined_before = mined.value();
  const std::uint64_t direct_before = direct.value();
  const FleetReport report = run_fleet(session, suite);
  ASSERT_TRUE(report.failures.empty());

  const std::uint64_t n = session.num_users();
  EXPECT_EQ(index_builds() - builds_before, 0u);
  EXPECT_EQ(mined.value() - mined_before, 2 * n);
  EXPECT_EQ(direct.value() - direct_before, 2 * n);
}

TEST(Fleet, SlicePoliciesExtractsColumns) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const EvalSession session(small_fleet(), cfg);
  const FleetReport report = run_fleet(session, suite);

  const FleetReport slice = slice_policies(session, report, 1, 2);
  ASSERT_EQ(slice.num_users, report.num_users);
  ASSERT_EQ(slice.num_policies, 2u);
  ASSERT_EQ(slice.aggregates.size(), 2u);
  EXPECT_EQ(slice.aggregates[0].policy, suite[1].name);
  EXPECT_EQ(slice.aggregates[1].policy, suite[2].name);
  for (std::size_t u = 0; u < slice.num_users; ++u) {
    for (std::size_t p = 0; p < 2u; ++p) {
      EXPECT_EQ(slice.at(u, p).report.energy_j,
                report.at(u, p + 1).report.energy_j);
    }
  }
  // Aggregates of a slice fold exactly the sliced columns.
  EXPECT_NEAR(slice.aggregates[0].energy_saving.mean(),
              report.aggregates[1].energy_saving.mean(), 1e-12);
  EXPECT_THROW(slice_policies(session, report, 0, 0), Error);
  EXPECT_THROW(slice_policies(session, report, 5, 2), Error);
}

}  // namespace
}  // namespace netmaster::eval
