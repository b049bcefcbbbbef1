// Tests for eval::run_fleet: grid shape and addressing, aggregate
// consistency with the cells, agreement with the per-volunteer
// comparison path, thread-count determinism, and the session's habit
// memo (one mine per user, bit-identical to mining in every cell,
// retried after a failed read, single-flight under concurrent readers).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "jobs/job_system.hpp"
#include "model_equality.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "policy/netmaster.hpp"
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
  const FleetReport report = run_fleet(EvalSession(small_fleet(), cfg), suite);

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
  const FleetReport report = run_fleet(EvalSession(small_fleet(), cfg), suite);

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
  const FleetReport report = run_fleet(EvalSession(users, cfg), suite);

  // compare_all on a one-user session runs the same suite in the same
  // order (baseline, oracle, netmaster, delay&batch 10/20/60) on the
  // same traces.
  for (std::size_t u = 0; u < users.size(); ++u) {
    const EvalSession one({users[u]}, cfg);
    const VolunteerComparison comparison = compare_all(one).front();
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
  // Building the session and evaluating it are both job graphs; at
  // every worker count the grid must equal the serial run bit for bit.
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const FleetReport serial = run_fleet(EvalSession(users, cfg, 1), suite, 1);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const FleetReport threaded =
        run_fleet(EvalSession(users, cfg, threads), suite, threads);
    ASSERT_EQ(threaded.cells.size(), serial.cells.size()) << threads;
    for (std::size_t c = 0; c < serial.cells.size(); ++c) {
      EXPECT_EQ(threaded.cells[c].policy, serial.cells[c].policy);
      EXPECT_EQ(threaded.cells[c].report.energy_j,
                serial.cells[c].report.energy_j)
          << "threads=" << threads << " cell=" << c;
      EXPECT_EQ(threaded.cells[c].report.radio_on_ms,
                serial.cells[c].report.radio_on_ms);
      EXPECT_EQ(threaded.cells[c].energy_saving,
                serial.cells[c].energy_saving);
      EXPECT_EQ(threaded.cells[c].report.affected_usages,
                serial.cells[c].report.affected_usages);
    }
    ASSERT_EQ(threaded.aggregates.size(), serial.aggregates.size());
    for (std::size_t p = 0; p < serial.aggregates.size(); ++p) {
      EXPECT_EQ(threaded.aggregates[p].total_energy_j,
                serial.aggregates[p].total_energy_j);
    }
  }
}

TEST(Fleet, RejectsEmptyPolicySuite) {
  const ExperimentConfig cfg = small_config();
  EXPECT_THROW(run_fleet(EvalSession(small_fleet(), cfg), {}), Error);
}

TEST(Fleet, BoundsCheckedAtMatchesRawCell) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(EvalSession(small_fleet(), cfg), suite);

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
    EXPECT_EQ(session.index(u).user(), session.user_id(u));
  }

  // Two runs over the same session agree with the throwaway-session
  // entry point bit for bit — the cache changes cost, not results.
  const FleetReport fresh = run_fleet(EvalSession(small_fleet(), cfg), suite);
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

TEST(Fleet, SessionMinesEachUserOnceWithoutIndexing) {
  // Exact work counters of two grids over a fresh resident session with
  // two NetMaster columns. The first grid mines each user once, into
  // the session's memo, straight from the valid training trace; the
  // second mines nothing. Both construct one policy per NetMaster cell
  // and build no index (the session indexed the evaluation traces up
  // front).
  const ExperimentConfig cfg = small_config();
  std::vector<PolicySpec> suite = standard_policy_suite(cfg.netmaster);
  suite.push_back(solver_ablation_suite(cfg.netmaster)[1]);  // greedy
  const EvalSession session(small_fleet(), cfg);
  const std::uint64_t n = session.num_users();

  obs::Registry& reg = obs::Registry::global();
  obs::Counter& mined = reg.counter("policy.netmaster.models_mined");
  obs::Counter& direct = reg.counter("mining.mine.direct");
  for (const std::uint64_t mines : {n, std::uint64_t{0}}) {
    const std::uint64_t builds_before = index_builds();
    const std::uint64_t mined_before = mined.value();
    const std::uint64_t direct_before = direct.value();
    const FleetReport report = run_fleet(session, suite);
    ASSERT_TRUE(report.failures.empty());
    EXPECT_EQ(index_builds() - builds_before, 0u);
    EXPECT_EQ(mined.value() - mined_before, 2 * n);
    EXPECT_EQ(direct.value() - direct_before, mines);
  }
}

/// The standard suite with its NetMaster column built the eager way:
/// the factory reads the trace and the policy mines it (the trace
/// constructor), instead of serving the session's memo.
std::vector<PolicySpec> eager_suite(const policy::NetMasterConfig& config) {
  std::vector<PolicySpec> suite = standard_policy_suite(config);
  for (PolicySpec& spec : suite) {
    if (spec.name != "netmaster") continue;
    spec.make = [config](const UserTrace& training) {
      return std::make_unique<policy::NetMasterPolicy>(training, config);
    };
  }
  return suite;
}

void expect_same_cells(const FleetReport& a, const FleetReport& b,
                       const std::string& context) {
  ASSERT_EQ(a.cells.size(), b.cells.size()) << context;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const FleetCell& x = a.cells[c];
    const FleetCell& y = b.cells[c];
    EXPECT_EQ(x.failed, y.failed) << context << " cell " << c;
    EXPECT_EQ(x.degraded, y.degraded) << context << " cell " << c;
    EXPECT_EQ(x.report.energy_j, y.report.energy_j) << context << " " << c;
    EXPECT_EQ(x.report.radio_on_ms, y.report.radio_on_ms) << context;
    EXPECT_EQ(x.report.affected_usages, y.report.affected_usages)
        << context;
    EXPECT_EQ(x.report.interrupts, y.report.interrupts) << context;
    EXPECT_EQ(x.report.deferred_count, y.report.deferred_count) << context;
    EXPECT_EQ(x.report.mean_deferral_latency_s,
              y.report.mean_deferral_latency_s)
        << context;
    EXPECT_EQ(x.energy_saving, y.energy_saving) << context;
  }
}

TEST(HabitMemo, MemoCellsMatchEagerMinedCellsAtEveryWorkerCount) {
  // The memo changes who mines, not what: a NetMaster cell built from
  // the session's habits equals one whose policy mined the trace
  // itself, on the first grid (which fills the memo) and on later ones
  // (which read it), at every worker count.
  const ExperimentConfig cfg = small_config();
  const auto users = small_fleet();
  const FleetReport eager =
      run_fleet(EvalSession(users, cfg, 1), eager_suite(cfg.netmaster), 1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const EvalSession session(users, cfg, threads);
    const auto suite = standard_policy_suite(cfg.netmaster);
    const std::string context = std::to_string(threads) + " workers";
    expect_same_cells(eager, run_fleet(session, suite, threads),
                      context + ", first grid");
    expect_same_cells(eager, run_fleet(session, suite, threads),
                      context + ", memo grid");
  }
}

TEST(HabitMemo, EagerHandleMinesNow) {
  // Outside a grid the handle wraps a hydrated trace and habits()
  // mines it on every call, bit-identically to the session's memo.
  const ExperimentConfig cfg = small_config();
  const EvalSession session(small_fleet(), cfg);
  const UserStore::Pin pin = session.traces(0);
  obs::Counter& direct = obs::Registry::global().counter("mining.mine.direct");
  const std::uint64_t before = direct.value();
  const TrainingTrace handle(pin.get().training);
  const mining::MinedHabits eager = handle.habits();
  EXPECT_EQ(handle.habits().special.flags(), eager.special.flags());
  EXPECT_EQ(direct.value() - before, 2u);
  const mining::MinedHabits& memo = session.habits(
      0, [&]() -> const UserTrace& { return pin.get().training; });
  expect_models_bitwise_equal(memo.model, eager.model, "memo vs eager");
  EXPECT_EQ(memo.special.flags(), eager.special.flags());
}

TEST(HabitMemo, FailedReadIsRetriedNotLatched) {
  // A throwing read leaves the memo empty; the next caller reads again
  // and fills it, and every caller after that is served the same memo.
  const EvalSession session(small_fleet(), small_config());
  const UserStore::Pin pin = session.traces(1);
  int reads = 0;
  const auto failing = [&]() -> const UserTrace& {
    ++reads;
    throw Error("training trace unavailable");
  };
  const auto working = [&]() -> const UserTrace& {
    ++reads;
    return pin.get().training;
  };
  EXPECT_THROW(session.habits(1, failing), Error);
  EXPECT_THROW(session.habits(1, failing), Error);
  EXPECT_EQ(reads, 2);
  const mining::MinedHabits& first = session.habits(1, working);
  EXPECT_EQ(reads, 3);
  EXPECT_EQ(&session.habits(1, failing), &first);
  EXPECT_EQ(reads, 3);
}

TEST(HabitMemo, ConcurrentFirstReadersMineOnce) {
  // Many cells of a fresh session ask for the same users' habits at
  // once: each user is read and mined exactly once, every reader gets
  // the one memo, and the grid equals the serial eager grid. Runs under
  // the jobs label so the race detector sees the memo's handoff.
  const ExperimentConfig cfg = small_config();
  const auto users = small_fleet();
  const FleetReport eager =
      run_fleet(EvalSession(users, cfg, 1), eager_suite(cfg.netmaster), 1);

  const EvalSession session(users, cfg);
  const std::size_t n = session.num_users();
  std::vector<std::atomic<int>> reads(n);
  std::vector<std::atomic<const mining::MinedHabits*>> seen(n);
  constexpr std::size_t kReadersPerUser = 16;
  jobs::TaskGraph graph;
  for (std::size_t r = 0; r < kReadersPerUser * n; ++r) {
    graph.add([&, u = r % n] {
      const UserStore::Pin pin = session.traces(u);
      const mining::MinedHabits& habits =
          session.habits(u, [&]() -> const UserTrace& {
            reads[u].fetch_add(1);
            return pin.get().training;
          });
      const mining::MinedHabits* expected = nullptr;
      if (!seen[u].compare_exchange_strong(expected, &habits)) {
        EXPECT_EQ(expected, &habits) << "user " << u;
      }
    });
  }
  jobs::run_graph(graph, 8);
  for (std::size_t u = 0; u < n; ++u) EXPECT_EQ(reads[u].load(), 1);

  // A fresh session's first grid with many NetMaster columns: one mine
  // per user, whichever cell of a row gets there first.
  std::vector<PolicySpec> suite = standard_policy_suite(cfg.netmaster);
  for (const PolicySpec& spec : solver_ablation_suite(cfg.netmaster)) {
    suite.push_back(spec);
  }
  const EvalSession fresh(users, cfg, 8);
  obs::Counter& direct = obs::Registry::global().counter("mining.mine.direct");
  const std::uint64_t before = direct.value();
  const FleetReport report = run_fleet(fresh, suite, 8);
  EXPECT_EQ(direct.value() - before, n);
  const std::size_t m = suite.size();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t p = 0; p < eager.num_policies; ++p) {
      EXPECT_EQ(report.cell(u, p).report.energy_j,
                eager.cell(u, p).report.energy_j)
          << "user " << u << " policy " << p;
    }
    // The fptas column of the solver ablation is the standard column.
    EXPECT_EQ(report.at(u, eager.num_policies).report.energy_j,
              eager.cell(u, 2).report.energy_j);
  }
  EXPECT_EQ(report.cells.size(), n * m);
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
