// Fig. 10(c) — Prediction-threshold sweep δ ∈ [0, 0.5]: prediction
// accuracy (usages inside predicted active slots) falls as δ grows
// while energy saving (relative to the oracle) rises; the curves cross
// near δ = 0.37. The paper nevertheless picks δ = 0.2 / 0.1
// (weekday/weekend) because not interrupting users comes first.
#include <iostream>

#include "bench_common.hpp"
#include "eval/experiments.hpp"
#include "eval/session.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

const std::vector<double> kDeltas = {0.0,  0.05, 0.1,  0.15, 0.2, 0.25,
                                     0.3,  0.35, 0.4,  0.45, 0.5};

void print_figure() {
  bench::banner("Fig. 10c — prediction-threshold sweep",
                "accuracy falls / saving rises with δ; crossover ≈ 0.37");
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const eval::EvalSession session(synth::study_population(), cfg);
  const auto points = eval::threshold_sweep(session, kDeltas);

  eval::Table t({"delta", "prediction accuracy", "energy saving"});
  double crossover = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    t.add_row({eval::Table::num(p.delta, 2), eval::Table::pct(p.accuracy),
               eval::Table::pct(p.energy_saving)});
    if (crossover < 0.0 && i > 0 &&
        points[i - 1].accuracy >= points[i - 1].energy_saving &&
        p.accuracy < p.energy_saving) {
      // Linear interpolation of the crossing point.
      const double d0 = points[i - 1].accuracy - points[i - 1].energy_saving;
      const double d1 = p.accuracy - p.energy_saving;
      crossover = points[i - 1].delta +
                  (p.delta - points[i - 1].delta) * d0 / (d0 - d1);
    }
  }
  bench::emit(t);
  if (crossover >= 0.0) {
    std::cout << "measured crossover: delta ≈ "
              << eval::Table::num(crossover, 2) << " (paper: 0.37)\n\n";
  } else {
    std::cout << "measured crossover: none in sweep range (paper: 0.37)\n\n";
  }
}

}  // namespace

NETMASTER_BENCH_MAIN()
