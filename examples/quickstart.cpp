// Quickstart: generate a synthetic user, train NetMaster on two weeks
// of usage, evaluate one week, and print the headline numbers —
// the 30-second tour of the library.
//
//   $ ./quickstart [seed]
#include <cstdint>
#include <iostream>

#include "cli_args.hpp"
#include "eval/battery.hpp"
#include "eval/experiments.hpp"
#include "eval/table.hpp"
#include "synth/presets.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  eval::ExperimentConfig config;
  config.seed = examples::seed_arg_or_exit(argc, argv, 1, config.seed);

  const synth::UserProfile user =
      synth::make_user(synth::Archetype::kOfficeWorker, 1);

  std::cout << "NetMaster quickstart — user '" << user.name
            << "', train " << config.train_days << "d, eval "
            << config.eval_days << "d, seed " << config.seed << "\n\n";

  const eval::EvalSession session({user}, config);
  if (!session.ok(0)) {
    std::cerr << "cannot prepare '" << user.name
              << "': " << session.prep_error(0) << "\n";
    return 1;
  }
  const eval::VolunteerComparison cmp = eval::compare_all(session).front();

  eval::Table table({"policy", "energy (J)", "saving", "radio-on (min)",
                     "avg down (kB/s)", "affected", "interrupts"});
  for (const eval::ComparisonRow& row : cmp.rows) {
    table.add_row({row.policy, eval::Table::num(row.report.energy_j, 1),
                   eval::Table::pct(row.energy_saving),
                   eval::Table::num(to_seconds(row.report.radio_on_ms) / 60.0, 1),
                   eval::Table::num(row.report.avg_down_rate_kbps, 2),
                   eval::Table::pct(row.report.affected_fraction),
                   std::to_string(row.report.interrupts)});
  }
  table.print(std::cout);

  std::cout << "\nBaseline usages: " << cmp.baseline.total_usages
            << ", activities moved "
            << (cmp.baseline.bytes_down + cmp.baseline.bytes_up) / 1024
            << " kB over " << cmp.baseline.horizon_ms / kMsPerDay
            << " days\n";
  std::cout << "Radio battery drain: stock "
            << eval::Table::pct(eval::battery_fraction_per_day(
                   cmp.rows[0].report.energy_j, config.eval_days))
            << "/day -> NetMaster "
            << eval::Table::pct(eval::battery_fraction_per_day(
                   cmp.rows[2].report.energy_j, config.eval_days))
            << "/day\n";
  return 0;
}
