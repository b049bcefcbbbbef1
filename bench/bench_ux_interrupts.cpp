// §VI-B — User experience: the chance that NetMaster makes a wrong
// decision (blocks the network when the user needs it) stays under 1%.
// The paper observed 1 wrong decision in 319 tracked data-settings
// visits.
#include <iostream>

#include "bench_common.hpp"
#include "eval/experiments.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

void print_figure() {
  bench::banner("§VI-B — user-experience / wrong decisions",
                "interrupt chance < 1% (1 of 319 in the paper)");
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;

  eval::Table t({"volunteer", "usages", "affected", "interrupts",
                 "affected fraction", "mean deferral (s)"});
  double worst = 0.0;
  for (const synth::UserProfile& profile : synth::volunteer_population()) {
    const eval::VolunteerTraces traces = eval::make_traces(profile, cfg);
    const policy::NetMasterPolicy policy(traces.training, cfg.netmaster);
    const sim::SimReport rep = sim::account(
        traces.eval, policy.run(traces.eval), cfg.netmaster.profit.radio);
    worst = std::max(worst, rep.affected_fraction);
    t.add_row({std::to_string(profile.id) + ":" + profile.name,
               std::to_string(rep.total_usages),
               std::to_string(rep.affected_usages),
               std::to_string(rep.interrupts),
               eval::Table::pct(rep.affected_fraction, 2),
               eval::Table::num(rep.mean_deferral_latency_s, 1)});
  }
  bench::emit(t);
  std::cout << "measured worst-case interrupt chance: "
            << eval::Table::pct(worst, 2) << " (paper: < 1%)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
