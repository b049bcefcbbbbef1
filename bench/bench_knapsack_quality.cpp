// §IV-B — Algorithm quality and cost, per solver backend:
// * the SinKnap FPTAS against the exact optimum across ε (the paper
//   fixes ε = 0.1 "to guarantee good performance while control the
//   computational overhead");
// * Algorithm 1 (overlapped multiple knapsack) under every pluggable
//   backend — fptas / exact / greedy / auto — against the brute-force
//   optimum: the paper proves a (1−ε)/2 bound for the FPTAS path and
//   observes the real gap is far smaller (≤ 11.2% worst case, < 5% in
//   81.6% of runs);
// * the solver work both studies did: the share of FPTAS solves the
//   capacity-slack path answered without the DP, and the Algorithm 1
//   slots that had to be ratio-sorted (EXPERIMENTS.md quotes both).
//
// Scalars recorded for CI: `approx_ratio_<backend>` (worst observed
// Algorithm 1 ratio vs. optimum, asserted ≥ (1−ε)/2 for the guaranteed
// backends), `auto_exact_slot_solves` (slots the `auto` backend solved
// with the exact DP, asserted > 0).
#include <iostream>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sched/knapsack.hpp"
#include "sched/overlap.hpp"
#include "sched/solver.hpp"

namespace {

using namespace netmaster;

std::vector<sched::KnapItem> random_items(Rng& rng, int n,
                                          std::int64_t max_weight) {
  std::vector<sched::KnapItem> items;
  items.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back({i, rng.uniform(1.0, 100.0),
                     rng.uniform_int(1, max_weight)});
  }
  return items;
}

struct OverlapInstance {
  std::vector<sched::OverlapSlot> slots;
  std::vector<sched::OverlapItem> items;
};

OverlapInstance random_overlap(Rng& rng, int n_items, int n_slots) {
  OverlapInstance inst;
  for (int s = 0; s < n_slots; ++s) {
    inst.slots.push_back({s, rng.uniform_int(50, 250)});
  }
  for (int i = 0; i < n_items; ++i) {
    const int prev = static_cast<int>(rng.uniform_int(0, n_slots - 2));
    inst.items.push_back({i, rng.uniform_int(10, 120),
                          rng.uniform(1.0, 50.0), prev, prev + 1});
  }
  return inst;
}

constexpr sched::SolverChoice kBackends[] = {
    sched::SolverChoice::kFptas, sched::SolverChoice::kExact,
    sched::SolverChoice::kGreedy, sched::SolverChoice::kAuto};

void print_figure() {
  bench::banner("§IV-B — approximation quality per solver backend",
                "FPTAS >= (1-eps)·OPT; Algorithm 1 >= (1-eps)/2·OPT, "
                "observed gap far smaller");

  std::cout << "\nSinKnap FPTAS vs exact optimum (n=40, 200 instances "
               "per eps)\n";
  eval::Table t({"eps", "guarantee", "worst ratio", "mean ratio"});
  for (double eps : {0.01, 0.05, 0.1, 0.25, 0.5, 0.9}) {
    double worst = 1.0, sum = 0.0;
    Rng rng(bench::kDefaultSeed);
    const int kRuns = 200;
    for (int run = 0; run < kRuns; ++run) {
      const auto items = random_items(rng, 40, 60);
      const std::int64_t cap = rng.uniform_int(100, 600);
      const double exact = sched::knapsack_exact(items, cap).profit;
      const double approx = sched::knapsack_fptas(items, cap, eps).profit;
      const double ratio = exact > 0.0 ? approx / exact : 1.0;
      worst = std::min(worst, ratio);
      sum += ratio;
    }
    t.add_row({eval::Table::num(eps, 2), eval::Table::num(1.0 - eps, 2),
               eval::Table::num(worst, 4),
               eval::Table::num(sum / kRuns, 4)});
  }
  bench::emit(t, "fptas_vs_exact");

  // Algorithm 1 under every backend vs. the brute-force optimum — the
  // same 200 seeded instances per backend so ratios are comparable.
  std::cout << "\nAlgorithm 1 backends vs brute-force optimum "
               "(12 items, 4 slots, 200 instances, eps=0.1)\n";
  eval::Table o({"backend", "guarantee", "worst ratio", "mean ratio",
                 "runs within 5% of OPT", "exact slot-solves"});
  for (const sched::SolverChoice backend : kBackends) {
    sched::SolverOptions options;
    options.choice = backend;
    sched::SchedWorkspace ws;
    double worst = 1.0, sum = 0.0;
    int within5 = 0;
    std::size_t exact_slot_solves = 0;
    Rng rng(bench::kDefaultSeed + 1);
    const int kRuns = 200;
    for (int run = 0; run < kRuns; ++run) {
      const auto inst = random_overlap(rng, 12, 4);
      const double exact =
          sched::solve_overlapped_exact(inst.slots, inst.items)
              .total_profit;
      sched::SolveStats stats;
      const double approx =
          sched::solve_overlapped(inst.slots, inst.items, options, ws,
                                  &stats)
              .total_profit;
      const double ratio = exact > 0.0 ? approx / exact : 1.0;
      worst = std::min(worst, ratio);
      sum += ratio;
      if (ratio >= 0.95) ++within5;
      exact_slot_solves += stats.slot_solves_exact;
    }
    const bool guaranteed = backend != sched::SolverChoice::kGreedy;
    o.add_row({sched::to_string(backend),
               guaranteed ? eval::Table::num(0.45, 2) : "none",
               eval::Table::num(worst, 4), eval::Table::num(sum / kRuns, 4),
               eval::Table::pct(static_cast<double>(within5) / kRuns),
               eval::Table::num(static_cast<double>(exact_slot_solves), 0)});
    bench::record_scalar(std::string("approx_ratio_") +
                             sched::to_string(backend),
                         worst);
    if (backend == sched::SolverChoice::kAuto) {
      bench::record_scalar("auto_exact_slot_solves",
                           static_cast<double>(exact_slot_solves));
    }
  }
  bench::emit(o, "backend_comparison");
  std::cout << "paper: worst observed gap 11.2%, within 5% of optimal in "
               "81.6% of tests\n";

  // Solver work of both studies above, from the sched counters. Their
  // capacities are drawn to bind, so the capacity-slack path and the
  // skipped ratio sort fire far less often than on trace workloads.
  const auto count = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  const std::uint64_t solves = count("sched.knapsack.solves");
  const std::uint64_t slack = count("sched.knapsack.slack");
  std::cout << "\nSolver work (both studies)\n";
  eval::Table w({"FPTAS solves", "capacity slack", "slack share",
                 "Algorithm 1 slots", "ratio-sorted slots"});
  w.add_row({std::to_string(solves), std::to_string(slack),
             eval::Table::pct(solves > 0 ? static_cast<double>(slack) /
                                               static_cast<double>(solves)
                                         : 0.0),
             std::to_string(count("sched.solver.slots")),
             std::to_string(count("sched.solver.slot_sorts"))});
  bench::emit(w, "solver_work");
}

}  // namespace

NETMASTER_BENCH_MAIN()
