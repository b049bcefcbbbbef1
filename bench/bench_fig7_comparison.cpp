// Fig. 7 — The headline evaluation over the 3 volunteers:
// (a) radio energy saving: NetMaster 77.8% on average, within 5% of the
//     oracle in most runs; naive delay-and-batch 22.54%;
// (b) radio-on time: NetMaster removes 75.39% of inefficient radio-on
//     time;
// (c) bandwidth utilization: download 3.84x, upload 2.63x on average;
//     peak rates unchanged.
#include <iostream>

#include "bench_common.hpp"
#include "eval/experiments.hpp"
#include "eval/session.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

eval::ExperimentConfig config() {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  return cfg;
}

void print_figure() {
  bench::banner("Fig. 7 — NetMaster vs baselines (3 volunteers)",
                "energy -77.8%, radio-on -75.39%, bandwidth x3.84/x2.63, "
                "oracle gap < 5%");
  const eval::EvalSession session(synth::volunteer_population(), config());
  const auto results = eval::compare_all(session);

  std::cout << "\n(a) radio energy saving\n";
  eval::Table a({"volunteer", "policy", "energy (J)", "saving",
                 "gap to oracle"});
  double nm_saving = 0.0, db_saving = 0.0;
  int db_count = 0;
  for (const auto& r : results) {
    double oracle_saving = 0.0;
    for (const auto& row : r.rows) {
      if (row.policy == "oracle") oracle_saving = row.energy_saving;
    }
    for (const auto& row : r.rows) {
      const double gap = oracle_saving - row.energy_saving;
      a.add_row({std::to_string(r.user) + ":" + r.profile_name, row.policy,
                 eval::Table::num(row.report.energy_j, 0),
                 eval::Table::pct(row.energy_saving),
                 row.policy == "baseline" ? "-" : eval::Table::pct(gap)});
      if (row.policy == "netmaster") nm_saving += row.energy_saving;
      if (row.policy.rfind("delay", 0) == 0) {
        db_saving += row.energy_saving;
        ++db_count;
      }
    }
  }
  bench::emit(a);
  std::cout << "measured: NetMaster avg saving "
            << eval::Table::pct(nm_saving /
                                static_cast<double>(results.size()))
            << " (paper 77.8%); delay&batch avg "
            << eval::Table::pct(db_saving / std::max(db_count, 1))
            << " (paper 22.54%)\n";

  std::cout << "\n(b) radio-on time (ratios of baseline radio-on)\n";
  eval::Table b({"volunteer", "power-on/radio-on", "radio-on (netmaster)",
                 "radio-off gain"});
  double saved = 0.0;
  for (const auto& r : results) {
    double nm_fraction = 1.0;
    for (const auto& row : r.rows) {
      if (row.policy == "netmaster") nm_fraction = row.radio_on_fraction;
    }
    saved += 1.0 - nm_fraction;
    b.add_row({std::to_string(r.user) + ":" + r.profile_name,
               eval::Table::num(
                   static_cast<double>(r.baseline.screen_on_ms) /
                       static_cast<double>(r.baseline.radio_on_ms),
                   2),
               eval::Table::pct(nm_fraction),
               eval::Table::pct(1.0 - nm_fraction)});
  }
  bench::emit(b);
  std::cout << "measured: NetMaster removes "
            << eval::Table::pct(saved / static_cast<double>(results.size()))
            << " of radio-on time (paper 75.39%)\n";

  std::cout << "\n(c) bandwidth utilization increase (NetMaster / baseline)\n";
  eval::Table c({"volunteer", "down avg", "up avg", "down peak",
                 "up peak"});
  double down = 0.0, up = 0.0;
  for (const auto& r : results) {
    for (const auto& row : r.rows) {
      if (row.policy != "netmaster") continue;
      down += row.down_rate_ratio;
      up += row.up_rate_ratio;
      c.add_row({std::to_string(r.user) + ":" + r.profile_name,
                 eval::Table::num(row.down_rate_ratio, 2) + "x",
                 eval::Table::num(row.up_rate_ratio, 2) + "x",
                 eval::Table::num(row.peak_down_ratio, 2) + "x",
                 eval::Table::num(row.peak_up_ratio, 2) + "x"});
    }
  }
  bench::emit(c);
  std::cout << "measured: avg download "
            << eval::Table::num(down / static_cast<double>(results.size()),
                                2)
            << "x (paper 3.84x), upload "
            << eval::Table::num(up / static_cast<double>(results.size()), 2)
            << "x (paper 2.63x); peak ~1x (paper: unchanged)\n\n";
}

void BM_CompareOneVolunteer(benchmark::State& state) {
  const auto volunteers = synth::volunteer_population();
  for (auto _ : state) {
    const eval::EvalSession session({volunteers.front()}, config());
    benchmark::DoNotOptimize(eval::compare_all(session));
  }
}
BENCHMARK(BM_CompareOneVolunteer)->Unit(benchmark::kMillisecond);

void BM_CompareAllCached(benchmark::State& state) {
  static const eval::EvalSession session(synth::volunteer_population(),
                                         config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::compare_all(session));
  }
}
BENCHMARK(BM_CompareAllCached)->Unit(benchmark::kMillisecond);

}  // namespace

NETMASTER_BENCH_MAIN()
