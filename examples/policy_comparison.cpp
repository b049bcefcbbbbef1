// Policy comparison across the whole 8-user study population: the
// standard §VI suite (baseline, oracle, NetMaster, delay&batch at
// 10/20/60 s) extended with fixed delay-60 and batch-5, with the full
// metric set. A wider view than the paper's 3-volunteer table (Fig. 7).
//
// One eval::EvalSession prepares every user's traces, index and
// baseline; one eval::run_fleet call evaluates the whole grid. The
// per-user tables come from the fleet cells and the population
// averages from the per-policy aggregates.
//
//   $ ./policy_comparison [seed]
#include <iostream>
#include <memory>

#include "cli_args.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "eval/table.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "synth/presets.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  eval::ExperimentConfig cfg;
  cfg.seed = examples::seed_arg_or_exit(argc, argv, 1, cfg.seed);

  std::cout << "Policy comparison over the 8-user study population "
            << "(train " << cfg.train_days << "d, eval " << cfg.eval_days
            << "d, seed " << cfg.seed << ")\n\n";

  auto suite = eval::standard_policy_suite(cfg.netmaster);
  suite.push_back({"delay-60s",
                   [](eval::TrainingTrace) {
                     return std::make_unique<policy::DelayPolicy>(
                         seconds(60));
                   },
                   {}});
  suite.push_back({"batch-5",
                   [](eval::TrainingTrace) {
                     return std::make_unique<policy::BatchPolicy>(5);
                   },
                   {}});

  const eval::EvalSession session(synth::study_population(), cfg);
  const eval::FleetReport report = eval::run_fleet(session, suite);

  for (std::size_t u = 0; u < session.num_users(); ++u) {
    std::cout << "== user " << session.user_id(u) << " ("
              << session.profile_name(u) << ") ==\n";
    if (!session.ok(u)) {
      std::cout << "  skipped: " << session.prep_error(u) << "\n\n";
      continue;
    }
    eval::Table table({"policy", "energy (J)", "saving", "radio-on (min)",
                       "avg down (kB/s)", "affected", "deferrals",
                       "mean wait (s)"});
    for (std::size_t p = 0; p < suite.size(); ++p) {
      const eval::FleetCell& cell = report.at(u, p);
      if (cell.failed) {
        std::cout << "  " << cell.policy << " failed: " << cell.error
                  << "\n";
        continue;
      }
      const sim::SimReport& rep = cell.report;
      table.add_row(
          {cell.policy, eval::Table::num(rep.energy_j, 0),
           eval::Table::pct(cell.energy_saving),
           eval::Table::num(to_seconds(rep.radio_on_ms) / 60.0, 1),
           eval::Table::num(rep.avg_down_rate_kbps, 2),
           eval::Table::pct(rep.affected_fraction),
           std::to_string(rep.deferred_count),
           eval::Table::num(rep.mean_deferral_latency_s, 0)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  double nm_saving = 0.0, oracle_saving = 0.0;
  for (const eval::FleetAggregate& agg : report.aggregates) {
    if (agg.policy == "netmaster") nm_saving = agg.energy_saving.mean();
    if (agg.policy == "oracle") oracle_saving = agg.energy_saving.mean();
  }
  std::cout << "population averages: NetMaster saving "
            << eval::Table::pct(nm_saving) << ", oracle "
            << eval::Table::pct(oracle_saving) << '\n';
  if (!report.failures.size()) return 0;
  std::cerr << report.failures.size()
            << " isolated failure(s) — see messages above\n";
  return 0;
}
