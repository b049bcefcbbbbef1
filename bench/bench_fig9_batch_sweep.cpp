// Fig. 9 — Off-line analysis of the batch method over batch sizes
// 0–10 (under the ≤1% interrupt constraint the paper applies):
// radio-on time shrinks by up to 17.7% and bandwidth utilization grows
// by up to 17.6%, but the curve flattens past 5 batched activities —
// users rarely have more than 5 transfers outstanding at once.
//
// Like Fig. 8, the sweep runs against one cached EvalSession.
#include <iostream>

#include "bench_common.hpp"
#include "eval/experiments.hpp"
#include "eval/session.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 6, 8, 10};

void print_figure() {
  bench::banner("Fig. 9 — batch-size sweep (0–10)",
                "radio-on -17.7%, bandwidth +17.6%, plateau past 5");
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const eval::EvalSession session(synth::volunteer_population(), cfg);
  const auto points = eval::batch_sweep(session, kSizes);

  eval::Table t({"batch size", "energy saving", "radio-on reduction",
                 "bandwidth increase", "affected users"});
  for (const auto& p : points) {
    t.add_row({eval::Table::num(p.x, 0), eval::Table::pct(p.energy_saving),
               eval::Table::pct(p.radio_on_reduction),
               eval::Table::pct(p.bandwidth_increase),
               eval::Table::pct(p.affected_fraction)});
  }
  bench::emit(t);
  const auto& five = points[5];
  const auto& last = points.back();
  std::cout << "measured at 5: radio-on "
            << eval::Table::pct(five.radio_on_reduction)
            << ", bandwidth " << eval::Table::pct(five.bandwidth_increase)
            << "; at 10: radio-on "
            << eval::Table::pct(last.radio_on_reduction) << ", bandwidth "
            << eval::Table::pct(last.bandwidth_increase)
            << " (paper: -17.7% / +17.6%, flat past 5)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
