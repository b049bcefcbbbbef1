// End-to-end chaos matrix for the monitoring -> mining -> policy
// pipeline: every fault kind x rate x seed is injected at the trace
// boundary and driven through the full stack. Hard invariants, checked
// for every scenario:
//   - no crash and no uncaught throw anywhere downstream,
//   - energy accounting stays conserved (total = transfers + duty),
//   - interruption probability stays bounded near the clean run,
//   - the degraded fallback path is visible in the outcome/report,
//   - one poisoned user never aborts the other N-1 fleet rows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "testkit/fault_plan.hpp"
#include "testkit/injector.hpp"
#include "fault/sanitize.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "service/online_sim.hpp"
#include "sim/accounting.hpp"
#include "synth/drift.hpp"
#include "synth/presets.hpp"

namespace netmaster {
namespace {

constexpr double kRates[] = {0.05, 0.2, 0.5};
constexpr std::uint64_t kSeeds[] = {1, 7, 31};

eval::ExperimentConfig chaos_config() {
  eval::ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 3;
  cfg.seed = 42;
  return cfg;
}

eval::VolunteerTraces clean_traces() {
  return eval::make_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1),
      chaos_config());
}

/// Energy conservation: the accountant's headline figure must be the
/// exact sum of its parts, degraded or not.
void expect_conserved(const sim::SimReport& report,
                      const std::string& context) {
  EXPECT_NEAR(report.energy_j,
              report.transfer_energy_j + report.duty_energy_j,
              1e-9 * (1.0 + report.energy_j))
      << context;
  EXPECT_GT(report.energy_j, 0.0) << context;
  EXPECT_GE(report.affected_fraction, 0.0) << context;
  EXPECT_LE(report.affected_fraction, 1.0) << context;
}

// ---- The matrix: corrupted TRAINING data. ----------------------------
// Every fault kind at every rate and seed hits the training trace raw
// (no pre-sanitation — the policy owns its tolerance). The policy must
// construct, run on the clean evaluation window, and stay within the
// stated band of the clean run's headline numbers.

TEST(ChaosMatrix, CorruptedTrainingNeverCrashesAndStaysInBand) {
  const eval::ExperimentConfig cfg = chaos_config();
  const eval::VolunteerTraces traces = clean_traces();
  const RadioModel& radio = cfg.netmaster.profit.radio;

  const sim::SimReport base = sim::account(
      traces.eval, policy::BaselinePolicy().run(traces.eval), radio);
  const policy::NetMasterPolicy clean_policy(traces.training,
                                             cfg.netmaster);
  const sim::SimReport clean =
      sim::account(traces.eval, clean_policy.run(traces.eval), radio);
  const double clean_saving = 1.0 - clean.energy_j / base.energy_j;

  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    for (const double rate : kRates) {
      for (const std::uint64_t seed : kSeeds) {
        const std::string context = std::string(fault::kind_name(kind)) +
                                    " rate " + std::to_string(rate) +
                                    " seed " + std::to_string(seed);
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.with(kind, rate);
        const fault::InjectionResult injected =
            fault::inject_faults(traces.training, plan);

        // No crash, no throw: the tolerant mine + degradation gate
        // absorb whatever the injector produced.
        const policy::NetMasterPolicy policy(injected.trace,
                                             cfg.netmaster);
        const sim::SimReport report =
            sim::account(traces.eval, policy.run(traces.eval), radio);

        expect_conserved(report, context);

        // Degradation provenance is visible end to end.
        EXPECT_EQ(report.degraded, policy.degraded()) << context;
        if (report.degraded) {
          EXPECT_FALSE(report.degraded_reason.empty()) << context;
          EXPECT_EQ(report.degraded_reason, policy.degraded_reason())
              << context;
        }

        // Band vs. the clean run: a policy running on damaged history
        // (or its safe fallback) may lose savings but must never blow
        // past the baseline's energy, and the interruption probability
        // stays bounded near the clean figure.
        const double saving = 1.0 - report.energy_j / base.energy_j;
        EXPECT_GE(saving, clean_saving - 0.5) << context;
        EXPECT_LE(report.energy_j, 1.05 * base.energy_j) << context;
        EXPECT_LE(report.affected_fraction,
                  clean.affected_fraction + 0.35)
            << context;
      }
    }
  }
}

// ---- The matrix: corrupted EVALUATION data. --------------------------
// Replayed monitoring data is corrupted too. The strict replay path
// requires a valid trace, so corrupted eval data flows through the
// sanitizer first; the repaired trace must then replay under the same
// conserved-accounting invariants for every scenario.

TEST(ChaosMatrix, SanitizedCorruptEvalReplaysConserved) {
  const eval::ExperimentConfig cfg = chaos_config();
  const eval::VolunteerTraces traces = clean_traces();
  const RadioModel& radio = cfg.netmaster.profit.radio;
  const policy::NetMasterPolicy policy(traces.training, cfg.netmaster);

  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    for (const double rate : kRates) {
      for (const std::uint64_t seed : kSeeds) {
        const std::string context = std::string(fault::kind_name(kind)) +
                                    " rate " + std::to_string(rate) +
                                    " seed " + std::to_string(seed);
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.with(kind, rate);
        const fault::SanitizeResult repaired = fault::sanitize_trace(
            fault::inject_faults(traces.eval, plan).trace);
        ASSERT_NO_THROW(repaired.trace.validate()) << context;

        const sim::SimReport report = sim::account(
            repaired.trace, policy.run(repaired.trace), radio);
        expect_conserved(report, context);
      }
    }
  }
}

// ---- Compound chaos: every fault kind at once. -----------------------

TEST(ChaosMatrix, AllKindsStackedStillDegradeGracefully) {
  const eval::ExperimentConfig cfg = chaos_config();
  const eval::VolunteerTraces traces = clean_traces();
  const RadioModel& radio = cfg.netmaster.profit.radio;

  for (const std::uint64_t seed : kSeeds) {
    fault::FaultPlan plan;
    plan.seed = seed;
    for (const fault::FaultKind kind : fault::all_fault_kinds()) {
      plan.with(kind, 0.4);
    }
    const fault::InjectionResult injected =
        fault::inject_faults(traces.training, plan);
    const policy::NetMasterPolicy policy(injected.trace, cfg.netmaster);
    const sim::SimReport report =
        sim::account(traces.eval, policy.run(traces.eval), radio);
    expect_conserved(report, "stacked seed " + std::to_string(seed));
  }
}

// ---- Forced degradation: the fallback path is taken and visible. -----

TEST(ChaosDegradation, ColdStartTripsTheSafeFallback) {
  // Truncating training history below min_training_days must trip the
  // delay-batch fallback, and the taken path must be visible in the
  // outcome, the report, and (below) the fleet grid.
  const eval::ExperimentConfig cfg = chaos_config();
  const eval::VolunteerTraces traces = clean_traces();

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.with(fault::FaultKind::kTruncateDays, 0.95);  // keeps 1 day
  const fault::InjectionResult injected =
      fault::inject_faults(traces.training, plan);
  ASSERT_EQ(injected.trace.num_days, 1);

  const policy::NetMasterPolicy policy(injected.trace, cfg.netmaster);
  EXPECT_TRUE(policy.degraded());
  EXPECT_FALSE(policy.degraded_reason().empty());

  const sim::PolicyOutcome outcome = policy.run(traces.eval);
  EXPECT_EQ(outcome.path, sim::ExecutionPath::kDegradedFallback);
  EXPECT_EQ(outcome.policy_name, policy.name());
  EXPECT_EQ(outcome.degraded_reason, policy.degraded_reason());

  const sim::SimReport report = sim::account(
      traces.eval, outcome, cfg.netmaster.profit.radio);
  EXPECT_TRUE(report.degraded);
  expect_conserved(report, "cold start");

  // The fallback is the safe schedule, not a no-op: it must still beat
  // the always-on baseline.
  const sim::SimReport base = sim::account(
      traces.eval, policy::BaselinePolicy().run(traces.eval),
      cfg.netmaster.profit.radio);
  EXPECT_LT(report.energy_j, base.energy_j);
}

TEST(ChaosDegradation, HealthyTrainingStaysOnNormalPath) {
  const eval::ExperimentConfig cfg = chaos_config();
  const eval::VolunteerTraces traces = clean_traces();
  const policy::NetMasterPolicy policy(traces.training, cfg.netmaster);
  EXPECT_FALSE(policy.degraded());
  const sim::PolicyOutcome outcome = policy.run(traces.eval);
  EXPECT_EQ(outcome.path, sim::ExecutionPath::kNormal);
  EXPECT_TRUE(outcome.degraded_reason.empty());
}

// ---- Fleet isolation: one poisoned user fails alone. -----------------

/// Three volunteers, user 1 (index 1) poisoned: raw field corruption
/// on the eval trace, deliberately NOT sanitized — an invalid replay
/// input.
std::vector<eval::VolunteerTraces> poisoned_volunteers(
    const eval::ExperimentConfig& cfg) {
  std::vector<eval::VolunteerTraces> volunteers;
  for (UserId id = 1; id <= 3; ++id) {
    volunteers.push_back(eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(id - 1), id),
        cfg));
  }
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.with(fault::FaultKind::kFieldCorruption, 0.5);
  volunteers[1].eval =
      fault::inject_faults(volunteers[1].eval, plan).trace;
  return volunteers;
}

TEST(ChaosFleet, PoisonedUserFailsAloneInTheGrid) {
  const eval::ExperimentConfig cfg = chaos_config();
  const auto suite = eval::standard_policy_suite(cfg.netmaster);

  const std::vector<eval::VolunteerTraces> volunteers =
      poisoned_volunteers(cfg);
  ASSERT_THROW(volunteers[1].eval.validate(), Error);

  const eval::FleetReport report =
      eval::run_fleet(eval::EvalSession(volunteers, cfg), suite);

  // The run completed, the poisoned row is a failure ledger entry, and
  // every cell of the other two users is healthy.
  ASSERT_EQ(report.num_users, 3u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].user, volunteers[1].eval.user);
  EXPECT_TRUE(report.failures[0].policy.empty());  // whole row failed
  EXPECT_FALSE(report.failures[0].error.empty());

  for (std::size_t p = 0; p < report.num_policies; ++p) {
    EXPECT_TRUE(report.cell(1, p).failed);
    for (const std::size_t u : {std::size_t{0}, std::size_t{2}}) {
      const eval::FleetCell& cell = report.cell(u, p);
      EXPECT_FALSE(cell.failed) << cell.policy;
      expect_conserved(cell.report, cell.policy);
    }
    // Failed cells are counted out of the aggregates, not folded in.
    EXPECT_EQ(report.aggregates[p].failed_cells, 1u);
    EXPECT_EQ(report.aggregates[p].energy_saving.count(), 2u);
  }
}

TEST(ChaosFleet, PoisonedUserFailsAloneUnderACappedStore) {
  // The same poisoned fleet over a trace cache far below one user:
  // the poisoned user is still admitted and spilled, its prepare fails
  // with the same error, and the grid's cells and failure ledger equal
  // the uncapped session's at every worker count.
  const eval::ExperimentConfig cfg = chaos_config();
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const std::vector<eval::VolunteerTraces> volunteers =
      poisoned_volunteers(cfg);
  const eval::EvalSession uncapped(volunteers, cfg);
  ASSERT_FALSE(uncapped.ok(1));
  const eval::FleetReport expected = eval::run_fleet(uncapped, suite);

  eval::ExperimentConfig capped_cfg = cfg;
  capped_cfg.store.cache_cap_bytes = 4096;
  for (const unsigned workers : {1u, 4u}) {
    const eval::EvalSession capped(volunteers, capped_cfg, workers);
    EXPECT_EQ(capped.store().size(), volunteers.size());
    EXPECT_EQ(capped.store().evictions(), volunteers.size());
    for (std::size_t u = 0; u < volunteers.size(); ++u) {
      EXPECT_EQ(capped.ok(u), uncapped.ok(u)) << "user " << u;
      EXPECT_EQ(capped.prep_error(u), uncapped.prep_error(u)) << "user " << u;
    }
    const eval::FleetReport report = eval::run_fleet(capped, suite, workers);
    ASSERT_EQ(report.cells.size(), expected.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      const eval::FleetCell& got = report.cells[c];
      const eval::FleetCell& want = expected.cells[c];
      EXPECT_EQ(got.failed, want.failed) << "cell " << c;
      EXPECT_EQ(got.error, want.error) << "cell " << c;
      EXPECT_EQ(got.report.energy_j, want.report.energy_j) << "cell " << c;
      EXPECT_EQ(got.report.radio_on_ms, want.report.radio_on_ms)
          << "cell " << c;
      EXPECT_EQ(got.energy_saving, want.energy_saving) << "cell " << c;
    }
    ASSERT_EQ(report.failures.size(), expected.failures.size());
    for (std::size_t f = 0; f < report.failures.size(); ++f) {
      EXPECT_EQ(report.failures[f].user, expected.failures[f].user);
      EXPECT_EQ(report.failures[f].policy, expected.failures[f].policy);
      EXPECT_EQ(report.failures[f].error, expected.failures[f].error);
    }
  }
}

TEST(ChaosFleet, DegradedUserIsVisibleInTheFleetReport) {
  const eval::ExperimentConfig cfg = chaos_config();
  const auto suite = eval::standard_policy_suite(cfg.netmaster);

  std::vector<eval::VolunteerTraces> volunteers;
  for (UserId id = 1; id <= 2; ++id) {
    volunteers.push_back(eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(id - 1), id),
        cfg));
  }
  // User 1 is a cold-start user: one day of history.
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.with(fault::FaultKind::kTruncateDays, 0.95);
  volunteers[1].training =
      fault::inject_faults(volunteers[1].training, plan).trace;

  const eval::FleetReport report =
      eval::run_fleet(eval::EvalSession(volunteers, cfg), suite);
  EXPECT_TRUE(report.failures.empty());

  // Exactly the NetMaster cell of the cold-start user runs degraded,
  // and the aggregate counts it.
  for (std::size_t p = 0; p < report.num_policies; ++p) {
    const bool is_netmaster = suite[p].name == "netmaster";
    EXPECT_EQ(report.cell(1, p).degraded, is_netmaster)
        << suite[p].name;
    EXPECT_FALSE(report.cell(0, p).degraded) << suite[p].name;
    EXPECT_EQ(report.aggregates[p].degraded_cells,
              is_netmaster ? 1u : 0u);
    if (is_netmaster) {
      EXPECT_FALSE(report.cell(1, p).report.degraded_reason.empty());
    }
  }
}

// ---- Drift + fault combined matrix. ----------------------------------
// Non-stationary users whose monitoring data is ALSO damaged: every
// drift archetype x every fault kind, driven through the adaptive
// online executive (detector + record store + re-mine-on-drift). The
// invariants are the chaos ones — never crash, conserved accounting,
// bounded degradation vs the baseline — with the adaptation loop live.

TEST(ChaosDrift, DriftPlusFaultsDegradeGracefullyUnderAdaptation) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 14;  // adaptation needs a real horizon
  cfg.eval_days = 14;
  cfg.seed = 42;
  const RadioModel& radio = cfg.netmaster.profit.radio;

  const synth::DriftKind kinds[] = {synth::DriftKind::kAbrupt,
                                    synth::DriftKind::kGradual,
                                    synth::DriftKind::kSeasonal};
  service::AdaptationConfig adapt;
  adapt.enable = true;

  for (const synth::DriftKind drift_kind : kinds) {
    synth::DriftSpec spec;
    spec.kind = drift_kind;
    spec.onset_day = 2;
    const eval::VolunteerTraces traces = eval::make_drifting_traces(
        synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg, spec);
    const engine::TraceIndex eval_idx(traces.eval);
    const sim::SimReport base = sim::account(
        traces.eval, policy::BaselinePolicy().run(eval_idx), radio);

    for (const fault::FaultKind fault_kind : fault::all_fault_kinds()) {
      const std::string context =
          "drift " + std::to_string(static_cast<int>(drift_kind)) +
          " fault " + std::string(fault::kind_name(fault_kind));
      fault::FaultPlan plan;
      plan.seed = 7;
      plan.with(fault_kind, 0.2);

      // Corrupted training + drifting eval through the adaptive loop:
      // the tolerant mine absorbs the damage, the detector watches the
      // drifting stream, refreshes hot-swap the predictor mid-replay.
      const UserTrace damaged =
          fault::inject_faults(traces.training, plan).trace;
      const service::OnlineSimResult result =
          service::run_online(damaged, traces.eval, eval_idx,
                              cfg.netmaster, adapt);
      const sim::SimReport report =
          sim::account(traces.eval, result.outcome, radio);
      expect_conserved(report, context);
      EXPECT_LE(report.energy_j, 1.05 * base.energy_j) << context;
      EXPECT_LE(report.affected_fraction, 1.0) << context;
      EXPECT_GE(result.outcome.drift_score, 0.0) << context;
      EXPECT_LE(result.outcome.drift_score, 1.0) << context;

      // Corrupted EVAL stream as well: sanitize, then adapt over the
      // repaired drifting trace. Must still replay conserved.
      const fault::SanitizeResult repaired = fault::sanitize_trace(
          fault::inject_faults(traces.eval, plan).trace);
      ASSERT_NO_THROW(repaired.trace.validate()) << context;
      const engine::TraceIndex repaired_idx(repaired.trace);
      const service::OnlineSimResult dirty_eval = service::run_online(
          traces.training, repaired.trace, repaired_idx, cfg.netmaster,
          adapt);
      const sim::SimReport dirty_report =
          sim::account(repaired.trace, dirty_eval.outcome, radio);
      expect_conserved(dirty_report, context + " dirty eval");
    }
  }
}

// ---- Chaos through the synthetic-profile fleet entry point. ----------

TEST(ChaosFleet, ProfileFleetSurvivesSanitizedChaosSweep) {
  // The volunteer overload replays sanitized chaos traces fleet-wide:
  // each user gets a different fault kind; zero failures, conserved
  // accounting everywhere.
  const eval::ExperimentConfig cfg = chaos_config();
  const auto suite = eval::standard_policy_suite(cfg.netmaster);

  std::vector<eval::VolunteerTraces> volunteers;
  std::size_t kind_index = 0;
  for (UserId id = 1; id <= 4; ++id, ++kind_index) {
    eval::VolunteerTraces v = eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(id - 1), id),
        cfg);
    fault::FaultPlan plan;
    plan.seed = 100 + id;
    plan.with(fault::all_fault_kinds()[kind_index % fault::kNumFaultKinds],
              0.3);
    v.training = fault::inject_faults(v.training, plan).trace;
    v.eval = fault::sanitize_trace(
                 fault::inject_faults(v.eval, plan).trace)
                 .trace;
    volunteers.push_back(std::move(v));
  }

  const eval::FleetReport report =
      eval::run_fleet(eval::EvalSession(volunteers, cfg), suite);
  EXPECT_TRUE(report.failures.empty());
  for (const eval::FleetCell& cell : report.cells) {
    EXPECT_FALSE(cell.failed) << cell.policy;
    expect_conserved(cell.report,
                     cell.profile_name + "/" + cell.policy);
  }
}

}  // namespace
}  // namespace netmaster
