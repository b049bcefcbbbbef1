// Extension — population scale-out (§VII future work).
//
// The paper's evaluation covers 3 volunteers and promises to "recruit
// more volunteers" — here we scale the synthetic population to 8/16/32
// diverse users and report the distribution of NetMaster's saving (and
// its battery-life meaning), on the one fleet evaluation path: an
// eval::EvalSession over per-user-seeded traces, then eval::run_fleet.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "eval/battery.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

/// N users cycling through the archetypes; user i's traces are
/// synthesized from seed + i.
std::vector<eval::VolunteerTraces> population(
    int n, const eval::ExperimentConfig& cfg) {
  std::vector<eval::VolunteerTraces> volunteers;
  volunteers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    eval::ExperimentConfig user_cfg = cfg;
    user_cfg.seed = cfg.seed + static_cast<std::uint64_t>(i);
    volunteers.push_back(eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(i % 8), i + 1),
        user_cfg));
  }
  return volunteers;
}

void print_figure() {
  bench::banner("Extension — population scale-out",
                "saving distribution over 8/16/32 diverse users "
                "(paper: 3 volunteers, more as future work)");
  eval::Table t({"users", "saving mean", "saving min", "saving max",
                 "stddev", "worst affected", "battery/day stock",
                 "battery/day netmaster"});
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  // The figure's one policy column; the stock reference is the
  // session's baseline report.
  std::vector<eval::PolicySpec> suite =
      eval::standard_policy_suite(cfg.netmaster);
  std::erase_if(suite, [](const eval::PolicySpec& spec) {
    return spec.name != "netmaster";
  });
  for (int n : {8, 16, 32}) {
    const eval::EvalSession session(population(n, cfg), cfg);
    const eval::FleetReport report = eval::run_fleet(session, suite);
    StreamingStats saving, battery_base, battery_nm;
    double worst_affected = 0.0;
    for (std::size_t u = 0; u < report.num_users; ++u) {
      const eval::FleetCell& cell = report.at(u, 0);
      saving.add(cell.energy_saving);
      battery_base.add(eval::battery_fraction_per_day(
          session.baseline(u).energy_j, cfg.eval_days));
      battery_nm.add(eval::battery_fraction_per_day(cell.report.energy_j,
                                                    cfg.eval_days));
      worst_affected =
          std::max(worst_affected, cell.report.affected_fraction);
    }
    t.add_row({std::to_string(n), eval::Table::pct(saving.mean()),
               eval::Table::pct(saving.min()),
               eval::Table::pct(saving.max()),
               eval::Table::pct(saving.stddev()),
               eval::Table::pct(worst_affected, 2),
               eval::Table::pct(battery_base.mean()),
               eval::Table::pct(battery_nm.mean())});
  }
  bench::emit(t, "population_scaleout");
  std::cout << "expected shape: savings hold across a diverse "
               "population; interrupts stay < 1% for every user\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
