// Fig. 8 — Off-line analysis of the fixed-interval delay method over
// delay intervals 0–600 s:
// (a) radio-on time reduced by up to 36.7%, energy by only 9.2%;
// (b) bandwidth utilization increased by up to 33.05%;
// (c) the fraction of affected user activities grows with the interval,
//     exceeding 40% at 600 s — delay alone cannot close the gap.
//
// The session is built once and all 13 points replay against it in a
// single (point × user × policy) grid.
#include <iostream>

#include "bench_common.hpp"
#include "eval/experiments.hpp"
#include "eval/session.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

const std::vector<double> kDelays = {0,  1,  2,  3,   4,   5,   10,
                                     20, 30, 60, 120, 300, 600};

const eval::EvalSession& shared_session() {
  static const eval::EvalSession session = [] {
    eval::ExperimentConfig cfg;
    cfg.seed = bench::kDefaultSeed;
    return eval::EvalSession(synth::volunteer_population(), cfg);
  }();
  return session;
}

void print_figure() {
  bench::banner("Fig. 8 — delay-interval sweep (0–600 s)",
                "at 600 s: radio-on -36.7%, energy -9.2%, bandwidth "
                "+33.05%, affected > 40%");
  const auto points = eval::delay_sweep(shared_session(), kDelays);

  eval::Table t({"delay (s)", "energy saving", "radio-on reduction",
                 "bandwidth increase", "affected users"});
  for (const auto& p : points) {
    t.add_row({eval::Table::num(p.x, 0), eval::Table::pct(p.energy_saving),
               eval::Table::pct(p.radio_on_reduction),
               eval::Table::pct(p.bandwidth_increase),
               eval::Table::pct(p.affected_fraction)});
  }
  bench::emit(t);
  const auto& last = points.back();
  std::cout << "measured at 600 s: energy "
            << eval::Table::pct(last.energy_saving)
            << " (paper 9.2%), radio-on "
            << eval::Table::pct(last.radio_on_reduction)
            << " (paper 36.7%), bandwidth "
            << eval::Table::pct(last.bandwidth_increase)
            << " (paper 33.05%), affected "
            << eval::Table::pct(last.affected_fraction)
            << " (paper > 40%)\n\n";
}

void BM_DelaySweepPointCached(benchmark::State& state) {
  const eval::EvalSession& session = shared_session();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::delay_sweep(
        session, {static_cast<double>(state.range(0))}));
  }
}
BENCHMARK(BM_DelaySweepPointCached)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_DelaySweepFullCached(benchmark::State& state) {
  const eval::EvalSession& session = shared_session();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::delay_sweep(session, kDelays));
  }
}
BENCHMARK(BM_DelaySweepFullCached)->Unit(benchmark::kMillisecond);

}  // namespace

NETMASTER_BENCH_MAIN()
