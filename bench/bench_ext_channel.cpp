// Extension — channel-aware scheduling (§VI-A future work).
//
// The paper observes that NetMaster cannot lift *peak* rates because
// "the peak rate is determined by the channel state" and defers channel
// awareness to future work. This bench supplies that experiment over
// our signal substrate: per-policy signal-adjusted radio energy, and
// the gain from the Bartendr-style post-pass that shifts deferred
// transfers toward good-signal moments.
#include <iostream>

#include "bench_common.hpp"
#include "testkit/signal_model.hpp"
#include "eval/experiments.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

void print_figure() {
  bench::banner("Extension — channel-aware scheduling",
                "future work in the paper: schedule around channel "
                "state (Bartendr-style)");
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const RadioModel radio = cfg.netmaster.profit.radio;

  eval::Table t({"volunteer", "policy", "RRC energy (J)",
                 "signal penalty (J)", "total (J)", "moved"});
  double saved_sum = 0.0;
  int rows = 0;
  for (const synth::UserProfile& profile : synth::volunteer_population()) {
    const eval::VolunteerTraces traces = eval::make_traces(profile, cfg);
    channel::SignalConfig sig_cfg;
    sig_cfg.seed = cfg.seed + static_cast<std::uint64_t>(profile.id);
    const channel::SignalTrace signal =
        channel::SignalTrace::generate(sig_cfg, traces.eval.trace_end());

    const policy::BaselinePolicy baseline;
    const policy::NetMasterPolicy nm(traces.training, cfg.netmaster);

    struct Arm {
      std::string name;
      sim::PolicyOutcome outcome;
      std::size_t moved = 0;
    };
    std::vector<Arm> arms;
    arms.push_back({"baseline", baseline.run(traces.eval), 0});
    arms.push_back({"netmaster", nm.run(traces.eval), 0});
    Arm aware{"netmaster+channel", nm.run(traces.eval), 0};
    aware.moved = channel::apply_channel_awareness(
        aware.outcome, traces.eval, signal, 15 * kMsPerMinute, radio);
    arms.push_back(std::move(aware));

    double plain_total = 0.0;
    for (const Arm& arm : arms) {
      const sim::SimReport rep =
          sim::account(traces.eval, arm.outcome, radio);
      const double penalty = channel::signal_energy_penalty_j(
          arm.outcome.transfers, signal, radio);
      const double total = rep.energy_j + penalty;
      if (arm.name == "netmaster") plain_total = total;
      if (arm.name == "netmaster+channel" && plain_total > 0.0) {
        saved_sum += 1.0 - total / plain_total;
        ++rows;
      }
      t.add_row({std::to_string(profile.id) + ":" + profile.name,
                 arm.name, eval::Table::num(rep.energy_j, 0),
                 eval::Table::num(penalty, 0),
                 eval::Table::num(total, 0),
                 std::to_string(arm.moved)});
    }
  }
  bench::emit(t);
  std::cout << "channel awareness saves a further "
            << eval::Table::pct(saved_sum / std::max(rows, 1))
            << " of NetMaster's signal-adjusted energy (paper: future "
               "work, no reference value)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
