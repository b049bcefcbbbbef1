// Fig. 10(a)/(b) — Duty-cycle parameter analysis:
// (a) radio-on fraction against the number of wake-ups for sleep
//     intervals from 5 s to 360 s — longer sleeps cut radio-on time;
// (b) cumulative wake-ups over a 30-minute idle window: the
//     exponential scheme wakes far less often than fixed, which beats
//     random.
#include <iostream>

#include "bench_common.hpp"
#include "duty/duty_cycle.hpp"

namespace {

using namespace netmaster;

constexpr DurationMs kWindowMs = 30 * kMsPerMinute;

duty::DutyConfig config_for(duty::SleepScheme scheme, DurationMs sleep) {
  duty::DutyConfig cfg;
  cfg.scheme = scheme;
  cfg.initial_sleep_ms = sleep;
  cfg.seed = bench::kDefaultSeed;
  return cfg;
}

void print_figure() {
  bench::banner("Fig. 10a/b — duty-cycle schemes",
                "longer sleeps cut radio-on; exponential << fixed < "
                "random wake-ups over 30 min");

  std::cout << "\n(a) exponential scheme: radio-on fraction vs sleep "
               "interval (30-min idle window)\n";
  eval::Table a({"sleep (s)", "wake-ups", "radio-on (s)",
                 "radio-on fraction"});
  for (DurationMs sleep_s : {5, 10, 20, 30, 120, 360}) {
    const auto wakes = duty::simulate_idle_window(
        config_for(duty::SleepScheme::kExponential,
                   sleep_s * kMsPerSecond),
        {0, kWindowMs});
    const DurationMs on = duty::total_wake_time(wakes);
    a.add_row({std::to_string(sleep_s), std::to_string(wakes.size()),
               eval::Table::num(to_seconds(on), 0),
               eval::Table::pct(static_cast<double>(on) /
                                static_cast<double>(kWindowMs), 2)});
  }
  bench::emit(a);

  std::cout << "\n(b) wake-ups over 30 idle minutes (T = 30 s)\n";
  eval::Table b({"minute", "exponential", "fixed", "random"});
  const auto exp_wakes = duty::simulate_idle_window(
      config_for(duty::SleepScheme::kExponential, 30 * kMsPerSecond),
      {0, kWindowMs});
  const auto fixed_wakes = duty::simulate_idle_window(
      config_for(duty::SleepScheme::kFixed, 30 * kMsPerSecond),
      {0, kWindowMs});
  const auto random_wakes = duty::simulate_idle_window(
      config_for(duty::SleepScheme::kRandom, 30 * kMsPerSecond),
      {0, kWindowMs});
  auto count_until = [](const std::vector<duty::WakeEvent>& wakes,
                        TimeMs t) {
    std::size_t n = 0;
    for (const auto& w : wakes) {
      if (w.time <= t) ++n;
    }
    return n;
  };
  for (int minute : {5, 10, 15, 20, 25, 30}) {
    const TimeMs t = minute * kMsPerMinute;
    b.add_row({std::to_string(minute),
               std::to_string(count_until(exp_wakes, t)),
               std::to_string(count_until(fixed_wakes, t)),
               std::to_string(count_until(random_wakes, t))});
  }
  bench::emit(b);
  std::cout << "measured totals: exponential " << exp_wakes.size()
            << ", fixed " << fixed_wakes.size() << ", random "
            << random_wakes.size()
            << " (paper shape: exponential far below the others)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
