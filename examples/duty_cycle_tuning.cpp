// Duty-cycle tuning: explore the §IV-C.2 sleep schemes over an idle
// night and over real phone usage — how sleep interval, back-off cap
// and scheme trade radio overhead against wake-up latency.
//
//   $ ./duty_cycle_tuning [seed]
#include <iostream>

#include "cli_args.hpp"
#include "duty/duty_cycle.hpp"
#include "eval/experiments.hpp"
#include "eval/table.hpp"
#include "policy/netmaster.hpp"
#include "synth/presets.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  const std::uint64_t seed = examples::seed_arg_or_exit(argc, argv, 1, 42);

  // Part 1: pure idle window (8-hour night), all schemes and intervals.
  std::cout << "8-hour idle night: wake-ups and radio-on by scheme\n\n";
  eval::Table idle({"scheme", "T (s)", "backoff cap", "wake-ups",
                    "radio-on (s)"});
  const Interval night{0, 8 * kMsPerHour};
  struct Row {
    duty::SleepScheme scheme;
    const char* name;
  };
  for (const Row& row : {Row{duty::SleepScheme::kExponential, "exponential"},
                         Row{duty::SleepScheme::kFixed, "fixed"},
                         Row{duty::SleepScheme::kRandom, "random"}}) {
    for (DurationMs sleep_s : {10, 30, 120}) {
      duty::DutyConfig cfg;
      cfg.scheme = row.scheme;
      cfg.initial_sleep_ms = sleep_s * kMsPerSecond;
      cfg.seed = seed;
      const auto wakes = duty::simulate_idle_window(cfg, night);
      idle.add_row({row.name, std::to_string(sleep_s),
                    std::to_string(1 << cfg.max_backoff_exponent),
                    std::to_string(wakes.size()),
                    eval::Table::num(
                        to_seconds(duty::total_wake_time(wakes)), 0)});
    }
  }
  idle.print(std::cout);

  // Part 2: back-off cap sweep under the full NetMaster policy.
  std::cout << "\nback-off cap sweep under NetMaster (student volunteer)\n\n";
  eval::ExperimentConfig cfg;
  cfg.seed = seed;
  const auto profile = synth::make_user(synth::Archetype::kStudent, 2);
  const eval::VolunteerTraces traces = eval::make_traces(profile, cfg);

  eval::Table sweep({"max backoff", "wake-ups", "duty energy (J)",
                     "duty releases", "mean deferral (s)"});
  for (int exponent : {0, 2, 4, 6, 8}) {
    policy::NetMasterConfig nm = cfg.netmaster;
    nm.duty.max_backoff_exponent = exponent;
    const policy::NetMasterPolicy policy(traces.training, nm);
    const sim::SimReport rep = sim::account(
        traces.eval, policy.run(traces.eval), nm.profit.radio);
    sweep.add_row({std::to_string(1 << exponent),
                   std::to_string(rep.wake_count),
                   eval::Table::num(rep.duty_energy_j, 1),
                   std::to_string(rep.deferred_count),
                   eval::Table::num(rep.mean_deferral_latency_s, 0)});
  }
  sweep.print(std::cout);
  std::cout << "\nlarger caps sleep longer (less probe energy) but make "
               "unpredicted transfers wait longer for a wake-up.\n";
  return 0;
}
