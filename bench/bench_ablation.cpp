// Ablation — component knock-out study (DESIGN.md): the full system
// versus NetMaster with prediction, duty cycling, or special-app
// tracking disabled, quantifying each component's contribution to
// energy saving and user experience. Both the knock-out table and the
// ε-sensitivity table replay against one cached EvalSession.
#include <iostream>

#include "bench_common.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "eval/sweep.hpp"
#include "policy/netmaster.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

void print_figure() {
  bench::banner("Ablation — NetMaster component knock-outs",
                "each component's contribution to saving / UX");
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const eval::EvalSession session(synth::volunteer_population(), cfg);
  const auto rows = eval::ablation_study(session);

  eval::Table t({"variant", "energy saving", "affected users",
                 "mean deferral (s)", "duty wake-ups"});
  for (const auto& row : rows) {
    t.add_row({row.variant, eval::Table::pct(row.energy_saving),
               eval::Table::pct(row.affected_fraction, 2),
               eval::Table::num(row.mean_deferral_latency_s, 1),
               eval::Table::num(row.wake_count, 0)});
  }
  bench::emit(t);
  std::cout << "expectation: disabling prediction pushes everything "
               "through the duty path (higher latency); disabling the "
               "duty cycle strands unpredicted transfers; disabling "
               "special apps raises interrupts\n";

  // ε sensitivity end to end (the paper fixes ε = 0.1 "to guarantee
  // good performance while control the computational overhead"). One
  // more sweep over the same session: the points are ε values and each
  // point's roster is a single NetMaster variant.
  std::cout << "\nSinKnap ε sensitivity (end-to-end, 3 volunteers)\n";
  eval::Table e({"eps", "energy saving", "affected users"});
  const std::vector<double> eps_values = {0.01, 0.1, 0.5, 0.9};
  eval::sweep(
      session, eps_values,
      [&cfg](double eps) {
        policy::NetMasterConfig nm = cfg.netmaster;
        nm.eps = eps;
        std::vector<eval::PolicySpec> specs;
        specs.push_back(
            {"netmaster-eps",
             [nm](eval::TrainingTrace training) {
               return std::make_unique<policy::NetMasterPolicy>(
                   training.habits(), nm);
             },
             {}});
        return specs;
      },
      [&](double eps, const eval::FleetReport& report) {
        double saving = 0.0, affected = 0.0;
        std::size_t n = 0;
        for (std::size_t u = 0; u < report.num_users; ++u) {
          const eval::FleetCell& cell = report.at(u, 0);
          if (cell.failed) continue;
          ++n;
          saving += cell.energy_saving;
          affected += cell.report.affected_fraction;
        }
        const double count = n > 0 ? static_cast<double>(n) : 1.0;
        e.add_row({eval::Table::num(eps, 2),
                   eval::Table::pct(saving / count),
                   eval::Table::pct(affected / count, 2)});
        return 0;
      });
  bench::emit(e);
  std::cout << "expected shape: savings barely move with ε on trace "
               "workloads (capacity rarely binds) — ε = 0.1 is a safe "
               "default\n\n";

  // Solver ablation: same session, one NetMaster column per SinKnap
  // backend (fptas / greedy / auto — exact is excluded: byte-scale
  // slot capacities blow its weight-indexed table).
  std::cout << "SinKnap backend ablation (end-to-end, 3 volunteers)\n";
  eval::Table s({"solver", "energy saving", "affected users",
                 "mean deferral (s)"});
  for (const auto& row : eval::solver_ablation_study(session)) {
    s.add_row({row.solver, eval::Table::pct(row.energy_saving),
               eval::Table::pct(row.affected_fraction, 2),
               eval::Table::num(row.mean_deferral_latency_s, 1)});
  }
  bench::emit(s);
  std::cout << "expected shape: backends agree on trace workloads "
               "(capacity rarely binds, so greedy already packs "
               "everything the FPTAS does)\n\n";
}

void BM_AblationFull(benchmark::State& state) {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const std::vector<synth::UserProfile> one = {
      synth::volunteer_population().front()};
  for (auto _ : state) {
    const eval::EvalSession session(one, cfg);
    benchmark::DoNotOptimize(eval::ablation_study(session));
  }
}
BENCHMARK(BM_AblationFull)->Unit(benchmark::kMillisecond);

void BM_AblationFullCached(benchmark::State& state) {
  static const eval::EvalSession session = [] {
    eval::ExperimentConfig cfg;
    cfg.seed = bench::kDefaultSeed;
    return eval::EvalSession(
        std::vector<synth::UserProfile>{synth::volunteer_population().front()},
        cfg);
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::ablation_study(session));
  }
}
BENCHMARK(BM_AblationFullCached)->Unit(benchmark::kMillisecond);

}  // namespace

NETMASTER_BENCH_MAIN()
