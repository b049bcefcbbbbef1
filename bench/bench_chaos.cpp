// Extension — robustness under chaos (the fault-injection spine).
//
// Sweeps fault rates through the full monitoring -> mining -> policy
// pipeline and reports how gracefully NetMaster degrades: energy
// saving, interruption probability, the fraction of users served by
// the safe fallback path, and per-user failure isolation in the fleet
// grid.
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "testkit/fault_plan.hpp"
#include "testkit/injector.hpp"
#include "fault/sanitize.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

constexpr std::size_t kUsers = 8;

eval::ExperimentConfig config() {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  return cfg;
}

/// Builds the fleet's volunteers, user u of archetype u % 8, with every
/// fault kind applied at `rate` to both halves of each user's data
/// (training raw, eval sanitized — the replay path needs validity).
std::vector<eval::VolunteerTraces> chaos_volunteers(double rate) {
  const eval::ExperimentConfig cfg = config();
  std::vector<eval::VolunteerTraces> volunteers;
  volunteers.reserve(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    eval::ExperimentConfig user_cfg = cfg;
    user_cfg.seed = cfg.seed + u;
    eval::VolunteerTraces v = eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(u % 8),
                         static_cast<int>(u) + 1),
        user_cfg);
    if (rate > 0.0) {
      fault::FaultPlan plan;
      plan.seed = bench::kDefaultSeed + u;
      for (const fault::FaultKind kind : fault::all_fault_kinds()) {
        plan.with(kind, rate);
      }
      v.training = fault::inject_faults(v.training, plan).trace;
      v.eval = fault::sanitize_trace(
                   fault::inject_faults(v.eval, plan).trace)
                   .trace;
    }
    volunteers.push_back(std::move(v));
  }
  return volunteers;
}

void print_figure() {
  bench::banner(
      "Extension — robustness under chaos",
      "graceful degradation: savings shrink, interrupts stay bounded, "
      "no user aborts the fleet (paper §IV-C covers prediction error "
      "only)");
  const eval::ExperimentConfig cfg = config();
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const std::size_t nm = 2;  // suite order: baseline, oracle, netmaster

  eval::Table t({"fault rate", "saving mean", "saving min",
                 "worst affected", "degraded users", "failed rows"});
  for (const double rate : {0.0, 0.05, 0.1, 0.2, 0.4, 0.7}) {
    const eval::FleetReport report =
        eval::run_fleet(eval::EvalSession(chaos_volunteers(rate), cfg), suite);
    StreamingStats saving;
    double worst_affected = 0.0;
    for (std::size_t u = 0; u < report.num_users; ++u) {
      const eval::FleetCell& cell = report.cell(u, nm);
      if (cell.failed) continue;
      saving.add(cell.energy_saving);
      worst_affected =
          std::max(worst_affected, cell.report.affected_fraction);
    }
    t.add_row({eval::Table::pct(rate, 0),
               eval::Table::pct(saving.mean()),
               eval::Table::pct(saving.min()),
               eval::Table::pct(worst_affected, 2),
               std::to_string(report.aggregates[nm].degraded_cells) +
                   "/" + std::to_string(report.num_users),
               std::to_string(report.failures.size())});
  }

  // Cold start: the whole fleet has one day of history, below the
  // min_training_days gate — every NetMaster cell must take the safe
  // fallback and say so in the report.
  {
    std::vector<eval::VolunteerTraces> volunteers = chaos_volunteers(0.0);
    for (std::size_t u = 0; u < volunteers.size(); ++u) {
      fault::FaultPlan plan;
      plan.seed = bench::kDefaultSeed + u;
      plan.with(fault::FaultKind::kTruncateDays, 1.0);
      volunteers[u].training =
          fault::inject_faults(volunteers[u].training, plan).trace;
    }
    const eval::FleetReport report = eval::run_fleet(
        eval::EvalSession(std::move(volunteers), cfg), suite);
    StreamingStats saving;
    double worst_affected = 0.0;
    for (std::size_t u = 0; u < report.num_users; ++u) {
      const eval::FleetCell& cell = report.cell(u, nm);
      saving.add(cell.energy_saving);
      worst_affected =
          std::max(worst_affected, cell.report.affected_fraction);
    }
    t.add_row({"cold start", eval::Table::pct(saving.mean()),
               eval::Table::pct(saving.min()),
               eval::Table::pct(worst_affected, 2),
               std::to_string(report.aggregates[nm].degraded_cells) +
                   "/" + std::to_string(report.num_users),
               std::to_string(report.failures.size())});
  }
  bench::emit(t);
  std::cout << "expected shape: savings degrade smoothly with the "
               "fault rate, zero failed rows (sanitized replay), and "
               "the cold-start fleet runs entirely on the safe "
               "fallback schedule\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
