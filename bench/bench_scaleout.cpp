// Extension — population scale-out (§VII future work).
//
// The paper's evaluation covers 3 volunteers and promises to "recruit
// more volunteers" — here we scale the synthetic population to 8/16/32
// diverse users and report the distribution of NetMaster's saving (and
// its battery-life meaning), plus the thread-scaling of the experiment
// harness itself.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "common/stats.hpp"
#include "engine/trace_index.hpp"
#include "eval/battery.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "jobs/job_system.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

/// N users cycling through the archetypes with per-user seeds.
std::vector<synth::UserProfile> population(int n) {
  std::vector<synth::UserProfile> users;
  users.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    users.push_back(synth::make_user(
        static_cast<synth::Archetype>(i % 8), i + 1));
  }
  return users;
}

struct UserResult {
  double saving = 0.0;
  double affected = 0.0;
  double baseline_battery = 0.0;   // battery fraction/day, stock
  double netmaster_battery = 0.0;  // battery fraction/day, NetMaster
};

std::vector<UserResult> run_population(int n, unsigned max_threads = 0) {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const auto users = population(n);
  std::vector<UserResult> results(users.size());
  jobs::TaskGraph graph;
  for (std::size_t i = 0; i < users.size(); ++i) {
    graph.add([&, i] {
      eval::ExperimentConfig user_cfg = cfg;
      user_cfg.seed = cfg.seed + i;
      const eval::VolunteerTraces traces =
          eval::make_traces(users[i], user_cfg);
      const RadioModel radio = cfg.netmaster.profit.radio;
      const sim::SimReport base = sim::account(
          traces.eval, policy::BaselinePolicy().run(traces.eval), radio);
      const policy::NetMasterPolicy nm(traces.training, cfg.netmaster);
      const sim::SimReport rep =
          sim::account(traces.eval, nm.run(traces.eval), radio);
      UserResult& r = results[i];
      if (base.energy_j > 0.0) {
        r.saving = 1.0 - rep.energy_j / base.energy_j;
      }
      r.affected = rep.affected_fraction;
      r.baseline_battery = eval::battery_fraction_per_day(
          base.energy_j, user_cfg.eval_days);
      r.netmaster_battery = eval::battery_fraction_per_day(
          rep.energy_j, user_cfg.eval_days);
    });
  }
  jobs::run_graph(graph, max_threads);
  return results;
}

void print_fleet_figure();
void print_memory_figure();
void print_skew_figure();

void print_figure() {
  bench::banner("Extension — population scale-out",
                "saving distribution over 8/16/32 diverse users "
                "(paper: 3 volunteers, more as future work)");
  eval::Table t({"users", "saving mean", "saving min", "saving max",
                 "stddev", "worst affected", "battery/day stock",
                 "battery/day netmaster"});
  for (int n : {8, 16, 32}) {
    const auto results = run_population(n);
    StreamingStats saving, battery_base, battery_nm;
    double worst_affected = 0.0;
    for (const UserResult& r : results) {
      saving.add(r.saving);
      battery_base.add(r.baseline_battery);
      battery_nm.add(r.netmaster_battery);
      worst_affected = std::max(worst_affected, r.affected);
    }
    t.add_row({std::to_string(n), eval::Table::pct(saving.mean()),
               eval::Table::pct(saving.min()),
               eval::Table::pct(saving.max()),
               eval::Table::pct(saving.stddev()),
               eval::Table::pct(worst_affected, 2),
               eval::Table::pct(battery_base.mean()),
               eval::Table::pct(battery_nm.mean())});
  }
  bench::emit(t, "population_scaleout");
  std::cout << "expected shape: savings hold across a diverse "
               "population; interrupts stay < 1% for every user\n\n";
  print_fleet_figure();
}

// ---- Fleet vs legacy N-user × all-policies sweep. ----
//
// The legacy path is the shape the eval layer had before the engine
// refactor: each (user, policy) cell regenerates the volunteer's traces
// (the per-point sweeps called make_traces per point per profile) and
// each policy rebuilds its own session state from the raw trace.
// The fleet path (eval::run_fleet over an eval::EvalSession) generates
// and indexes every user's trace once, shares the engine::TraceIndex
// across all policies, and parallelizes over the full N×M grid. The
// sweep-level amortization of the same cache is measured in
// bench_fig8_delay_sweep / bench_fig9_batch_sweep.

std::vector<double> legacy_sweep_energy(
    const std::vector<synth::UserProfile>& users,
    const eval::ExperimentConfig& cfg,
    const std::vector<eval::PolicySpec>& suite) {
  const RadioModel radio = cfg.netmaster.profit.radio;
  std::vector<double> energy(users.size() * suite.size());
  jobs::TaskGraph graph;
  for (std::size_t u = 0; u < users.size(); ++u) {
    graph.add([&, u] {
      for (std::size_t p = 0; p < suite.size(); ++p) {
        const eval::VolunteerTraces traces =
            eval::make_traces(users[u], cfg);
        const auto pol = suite[p].make(traces.training);
        const sim::SimReport rep =
            sim::account(traces.eval, pol->run(traces.eval), radio);
        energy[u * suite.size() + p] = rep.energy_j;
      }
    });
  }
  jobs::run_graph(graph);
  return energy;
}

std::vector<double> fleet_sweep_energy(
    const std::vector<synth::UserProfile>& users,
    const eval::ExperimentConfig& cfg,
    const std::vector<eval::PolicySpec>& suite) {
  const eval::FleetReport report =
      eval::run_fleet(eval::EvalSession(users, cfg), suite);
  std::vector<double> energy(report.cells.size());
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    energy[c] = report.cells[c].report.energy_j;
  }
  return energy;
}

template <typename F>
double best_of_ms(int reps, F&& f) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    obs::ScopedTimer timer;
    f();
    const double ms = timer.stop();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

void print_fleet_figure() {
  bench::banner("Engine refactor — fleet sweep vs legacy per-cell path",
                "one shared TraceIndex per user across all policies "
                "(refactor target: >= 1.3x)");
  eval::Table t({"users", "policies", "legacy ms", "fleet ms", "speedup",
                 "results"});
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  for (int n : {8, 16, 32}) {
    const auto users = population(n);

    const std::vector<double> legacy =
        legacy_sweep_energy(users, cfg, suite);
    const std::vector<double> fleet = fleet_sweep_energy(users, cfg, suite);
    NM_REQUIRE(legacy.size() == fleet.size(),
               "sweep paths must produce the same cell grid");
    bool identical = true;
    for (std::size_t c = 0; c < legacy.size(); ++c) {
      if (legacy[c] != fleet[c]) identical = false;
    }

    const double legacy_ms =
        best_of_ms(2, [&] { legacy_sweep_energy(users, cfg, suite); });
    const double fleet_ms =
        best_of_ms(2, [&] { fleet_sweep_energy(users, cfg, suite); });
    const double speedup = fleet_ms > 0.0 ? legacy_ms / fleet_ms : 0.0;
    bench::record_scalar("fleet_speedup_" + std::to_string(n) + "_users",
                         speedup);
    t.add_row({std::to_string(n), std::to_string(suite.size()),
               eval::Table::num(legacy_ms, 1), eval::Table::num(fleet_ms, 1),
               eval::Table::num(speedup, 2) + "x",
               identical ? "bit-identical" : "MISMATCH"});
  }
  bench::emit(t, "fleet_vs_legacy");
  std::cout << "expected shape: speedup >= 1.3x at every population size; "
               "cell energies bit-identical between paths\n\n";
  print_memory_figure();
}

// ---- Memory architecture — all-resident vs spill-to-disk fleet. ----
//
// "before" is the all-resident shape the eval layer had prior to the
// memory refactor: every user's AoS traces stay hydrated for the whole
// run (UserStore cap 0) next to the per-user index arenas. "after"
// runs the same fleet with a small cache cap, so AoS traces spill to
// disk blobs and the steady-state footprint is the arena-backed SoA
// columns plus the bounded blob cache. Spilling is a memory policy,
// not a semantic one: every cell's accounting must stay bit-identical
// to the golden all-resident replay.

void print_memory_figure() {
  bench::banner(
      "Memory architecture — arena + SoA columns + spill-to-disk store",
      "bounded resident footprint at fleet scale "
      "(refactor target: >= 2x users per GB, bit-identical results)");
  eval::Table t({"users", "before MB", "after MB", "users/GB before",
                 "users/GB after", "gain", "replay ns/event", "results"});
  eval::ExperimentConfig resident_cfg;
  resident_cfg.seed = bench::kDefaultSeed;
  const auto suite = eval::standard_policy_suite(resident_cfg.netmaster);
  std::vector<eval::PolicySpec> training_free = suite;
  std::erase_if(training_free, [](const eval::PolicySpec& spec) {
    return spec.name == "netmaster";
  });
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  constexpr double kMiB = 1024.0 * 1024.0;
  for (int n : {8, 16, 32}) {
    const auto users = population(n);

    const eval::EvalSession resident(users, resident_cfg);
    const eval::FleetReport golden = eval::run_fleet(resident, suite);
    const double before_bytes =
        static_cast<double>(resident.store().resident_bytes()) +
        static_cast<double>(resident.arena_bytes());

    // Set-up prepares each user from the traces it admits, so building
    // the spilled session must not decode a single blob.
    const obs::Counter& rehydrations =
        obs::Registry::global().counter("store.rehydrations");
    const std::uint64_t setup_before = rehydrations.value();
    eval::ExperimentConfig spill_cfg = resident_cfg;
    spill_cfg.store.cache_cap_bytes = 256 * 1024;
    const eval::EvalSession spilled(users, spill_cfg);
    const std::uint64_t setup_rehydrations =
        rehydrations.value() - setup_before;
    std::size_t events = 0;
    for (std::size_t u = 0; u < spilled.num_users(); ++u) {
      events += spilled.index(u).activities().size();
    }
    const std::uint64_t rehydrations_before = rehydrations.value();
    obs::ScopedTimer timer;
    const eval::FleetReport report = eval::run_fleet(spilled, suite);
    const double replay_ms = timer.stop();
    const std::uint64_t grid_rehydrations =
        rehydrations.value() - rehydrations_before;
    NM_REQUIRE(spilled.store().evictions() > 0,
               "the spill bench must actually exceed its cache cap");

    // The training-free columns replay from the resident index alone:
    // their grid must not decode a single spilled user.
    const std::uint64_t training_free_before = rehydrations.value();
    eval::run_fleet(spilled, training_free);
    const std::uint64_t training_free_rehydrations =
        rehydrations.value() - training_free_before;

    // Which users a grid leaves hydrated depends on which of its cells
    // finished last. Pin every user once, serially in id order, so
    // "after" is the store's footprint after a walk over the whole
    // fleet: the hydrations the cap keeps (the last users in id order,
    // at least the last one, since a pin never evicts the user it
    // hydrates) plus every user's index arena.
    for (std::size_t u = 0; u < spilled.num_users(); ++u) spilled.traces(u);
    const double after_bytes =
        static_cast<double>(spilled.store().resident_bytes()) +
        static_cast<double>(spilled.arena_bytes());

    bool identical = report.cells.size() == golden.cells.size();
    for (std::size_t c = 0; identical && c < report.cells.size(); ++c) {
      identical = report.cells[c].report.energy_j ==
                      golden.cells[c].report.energy_j &&
                  report.cells[c].report.radio_on_ms ==
                      golden.cells[c].report.radio_on_ms;
    }

    const double per_gb_before =
        before_bytes > 0.0 ? n * kGiB / before_bytes : 0.0;
    const double per_gb_after =
        after_bytes > 0.0 ? n * kGiB / after_bytes : 0.0;
    const double gain =
        per_gb_before > 0.0 ? per_gb_after / per_gb_before : 0.0;
    const std::size_t total_events = events * suite.size();
    const double ns_per_event =
        total_events > 0 ? replay_ms * 1e6 / total_events : 0.0;
    const std::string tag = "_" + std::to_string(n) + "_users";
    bench::record_scalar("mem_users_per_gb_before" + tag, per_gb_before);
    bench::record_scalar("mem_users_per_gb_after" + tag, per_gb_after);
    bench::record_scalar("mem_footprint_gain" + tag, gain);
    bench::record_scalar("mem_replay_ns_per_event" + tag, ns_per_event);
    bench::record_scalar("mem_store_evictions" + tag,
                         static_cast<double>(spilled.store().evictions()));
    bench::record_scalar("mem_store_rehydrations" + tag,
                         static_cast<double>(grid_rehydrations));
    bench::record_scalar("mem_store_rehydrations_training_free" + tag,
                         static_cast<double>(training_free_rehydrations));
    bench::record_scalar("mem_store_rehydrations_setup" + tag,
                         static_cast<double>(setup_rehydrations));
    bench::record_scalar("mem_spill_bit_identical" + tag,
                         identical ? 1.0 : 0.0);
    t.add_row({std::to_string(n), eval::Table::num(before_bytes / kMiB, 1),
               eval::Table::num(after_bytes / kMiB, 1),
               eval::Table::num(per_gb_before, 0),
               eval::Table::num(per_gb_after, 0),
               eval::Table::num(gain, 2) + "x",
               eval::Table::num(ns_per_event, 1),
               identical ? "bit-identical" : "MISMATCH"});
  }
  bench::emit(t, "memory_architecture");
  std::cout << "expected shape: >= 2x users per GB at every population "
               "size; spilled replay bit-identical to the golden "
               "all-resident run\n\n";
  print_skew_figure();
}

// ---- Work-stealing job graph vs barrier stages on a skewed fleet. ----
//
// The barrier shape is the pre-job-system pipeline: a static-stride
// parallel_for over per-user preparation, a full join, then another
// static-stride parallel_for over the N×M cell grid. With a
// heavy-tailed fleet (one user with 10 weeks of evaluation trace among
// one-week users) every stage waits for its slowest straggler twice.
// The graph path is what ships: EvalSession construction runs the
// per-user prepare tasks on the work-stealing pool, then run_fleet
// runs the N×M cell grid as a second graph. It keeps the one join
// between the two, but neither stage is a static stride: a worker that
// finishes early takes the next task instead of waiting out its fixed
// share behind the heavy user.
//
// A CI runner is not guaranteed 8 cores, so the >= 8-thread
// comparison is *modeled* from per-task durations measured
// single-threaded: the barrier model is the max static-stride worker
// sum per stage (summed across stages), the graph model list-schedules
// the prepares onto 8 workers, joins, then list-schedules the cells.
// The measured wall ratio at 8 threads is recorded alongside as a
// separate scalar.

/// Heavy-tailed fleet: user 0 carries 70 evaluation days, user 1 four
/// weeks, everyone else one week. Training is 14 days for all, so
/// mining cost is uniform and the skew is in the replay horizon.
std::vector<eval::VolunteerTraces> skewed_fleet(int n) {
  std::vector<eval::VolunteerTraces> fleet;
  fleet.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    eval::ExperimentConfig cfg;
    cfg.seed = bench::kDefaultSeed + static_cast<std::uint64_t>(i);
    cfg.train_days = 14;
    cfg.eval_days = i == 0 ? 70 : i == 1 ? 28 : 7;
    fleet.push_back(eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(i % 8), i + 1),
        cfg));
  }
  return fleet;
}

struct BarrierRun {
  std::vector<double> energies;  ///< n*m cell energies, user-major
  std::vector<double> prep_ms;   ///< per-user stage-1 task durations
  std::vector<double> cell_ms;   ///< per-cell stage-2 task durations
  double wall_ms = 0.0;
};

/// The pre-job-system executor: a thread fan-out with a static
/// stride partition (index i runs on worker i % W) and a full join
/// barrier. A throwing worker abandons the rest of its stride, the
/// others run to completion, and the failure at the lowest index is
/// rethrown after the join.
template <typename Fn>
void static_parallel_for(std::size_t count, Fn&& fn, unsigned threads) {
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1u), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
  {
    std::vector<std::jthread> pool;  // joins every worker at scope exit
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < count; i += workers) {
          try {
            fn(i);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (i < first_error_index) {
              first_error_index = i;
              first_error = std::current_exception();
            }
            return;
          }
        }
      });
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// The pre-job-system pipeline, replicated on static_parallel_for:
/// stage 1 prepares every user's index behind a barrier, stage 2 runs
/// the cell grid behind another.
BarrierRun run_barrier(const std::vector<eval::VolunteerTraces>& fleet,
                       const std::vector<eval::PolicySpec>& suite,
                       const RadioModel& radio, unsigned threads) {
  const std::size_t n = fleet.size();
  const std::size_t m = suite.size();
  BarrierRun out;
  out.energies.assign(n * m, 0.0);
  out.prep_ms.assign(n, 0.0);
  out.cell_ms.assign(n * m, 0.0);
  std::vector<std::unique_ptr<engine::TraceIndex>> indexes(n);
  obs::ScopedTimer wall;
  static_parallel_for(
      n,
      [&](std::size_t u) {
        obs::ScopedTimer timer;
        fleet[u].eval.validate();
        indexes[u] = std::make_unique<engine::TraceIndex>(fleet[u].eval);
        out.prep_ms[u] = timer.stop();
      },
      threads);
  static_parallel_for(
      n * m,
      [&](std::size_t c) {
        obs::ScopedTimer timer;
        const std::size_t u = c / m;
        const auto pol = suite[c % m].make(fleet[u].training);
        out.energies[c] =
            sim::account(fleet[u].eval, pol->run(*indexes[u]), radio)
                .energy_j;
        out.cell_ms[c] = timer.stop();
      },
      threads);
  out.wall_ms = wall.stop();
  return out;
}

/// Modeled makespan of the barrier pipeline at `workers`: per stage,
/// the max static-stride per-worker sum (index i -> worker i % W, the
/// partition static_parallel_for uses); stages add because of the full
/// join between them.
double barrier_makespan(const std::vector<double>& prep_ms,
                        const std::vector<double>& cell_ms, int workers,
                        std::vector<double>& busy) {
  busy.assign(static_cast<std::size_t>(workers), 0.0);
  double makespan = 0.0;
  for (const std::vector<double>* stage : {&prep_ms, &cell_ms}) {
    std::vector<double> per(static_cast<std::size_t>(workers), 0.0);
    for (std::size_t i = 0; i < stage->size(); ++i) {
      per[i % workers] += (*stage)[i];
    }
    double stage_max = 0.0;
    for (int w = 0; w < workers; ++w) {
      busy[static_cast<std::size_t>(w)] += per[static_cast<std::size_t>(w)];
      stage_max = std::max(stage_max, per[static_cast<std::size_t>(w)]);
    }
    makespan += stage_max;
  }
  return makespan;
}

/// Greedy list scheduling of `tasks` in submission order: each goes to
/// the worker that frees up first (ties by worker index). Advances
/// `free_at` and `busy`; returns the stage's makespan.
double list_schedule(const std::vector<double>& tasks,
                     std::vector<double>& free_at, std::vector<double>& busy) {
  double makespan = 0.0;
  for (const double dur : tasks) {
    const auto w = static_cast<std::size_t>(
        std::min_element(free_at.begin(), free_at.end()) - free_at.begin());
    free_at[w] += dur;
    busy[w] += dur;
    makespan = std::max(makespan, free_at[w]);
  }
  return makespan;
}

/// Modeled makespan of the session path at `workers`: the session
/// build's prepare graph, the join at its end, then the cell grid's
/// graph — both list-scheduled.
double graph_makespan(const std::vector<double>& prep_ms,
                      const std::vector<double>& cell_ms, int workers,
                      std::vector<double>& busy) {
  std::vector<double> free_at(static_cast<std::size_t>(workers), 0.0);
  busy.assign(static_cast<std::size_t>(workers), 0.0);
  const double built = list_schedule(prep_ms, free_at, busy);
  free_at.assign(free_at.size(), built);
  return list_schedule(cell_ms, free_at, busy);
}

/// Nearest-rank p10 of per-worker utilization — the straggler gauge:
/// how busy the *least* loaded decile of workers is over the run.
double utilization_p10(const std::vector<double>& busy, double makespan) {
  if (makespan <= 0.0 || busy.empty()) return 0.0;
  std::vector<double> util;
  util.reserve(busy.size());
  for (const double b : busy) util.push_back(b / makespan);
  std::sort(util.begin(), util.end());
  const std::size_t rank =
      std::max<std::size_t>(1, (util.size() * 10 + 99) / 100);
  return util[rank - 1];
}

void print_skew_figure() {
  bench::banner(
      "Work-stealing job graph vs barrier stages — skewed fleet",
      "session build + grid graphs on a heavy-tailed population "
      "(refactor target: >= 1.15x modeled at 8 workers, bit-identical)");
  constexpr int kWorkers = 8;
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const RadioModel radio = cfg.netmaster.profit.radio;
  const auto fleet = skewed_fleet(16);

  // Per-task durations measured single-threaded, element-wise best of
  // three passes to shave scheduler noise off the makespan models.
  BarrierRun seq = run_barrier(fleet, suite, radio, 1);
  for (int rep = 0; rep < 2; ++rep) {
    const BarrierRun again = run_barrier(fleet, suite, radio, 1);
    for (std::size_t u = 0; u < seq.prep_ms.size(); ++u) {
      seq.prep_ms[u] = std::min(seq.prep_ms[u], again.prep_ms[u]);
    }
    for (std::size_t c = 0; c < seq.cell_ms.size(); ++c) {
      seq.cell_ms[c] = std::min(seq.cell_ms[c], again.cell_ms[c]);
    }
  }

  // The shipping session path must be bit-identical to the barrier
  // replica, cell for cell.
  const eval::FleetReport report = eval::run_fleet(
      eval::EvalSession(fleet, cfg, kWorkers), suite, kWorkers);
  NM_REQUIRE(report.cells.size() == seq.energies.size(),
             "graph and barrier paths must produce the same cell grid");
  bool identical = true;
  for (std::size_t c = 0; c < seq.energies.size(); ++c) {
    if (report.cells[c].report.energy_j != seq.energies[c]) {
      identical = false;
    }
  }
  NM_REQUIRE(identical,
             "job-graph fleet must be bit-identical to the barrier path");

  // Modeled makespans at 8 workers from the measured durations.
  std::vector<double> busy_barrier;
  std::vector<double> busy_graph;
  const double barrier_model =
      barrier_makespan(seq.prep_ms, seq.cell_ms, kWorkers, busy_barrier);
  const double graph_model =
      graph_makespan(seq.prep_ms, seq.cell_ms, kWorkers, busy_graph);
  const double speedup =
      graph_model > 0.0 ? barrier_model / graph_model : 0.0;
  const double p10_barrier = utilization_p10(busy_barrier, barrier_model);
  const double p10_graph = utilization_p10(busy_graph, graph_model);

  // Measured walls at 8 threads (on a 1-core container both degenerate
  // to the serial sum — recorded, not gated).
  const double barrier_wall = best_of_ms(
      2, [&] { run_barrier(fleet, suite, radio, kWorkers); });
  const double graph_wall = best_of_ms(2, [&] {
    eval::run_fleet(eval::EvalSession(fleet, cfg, kWorkers), suite,
                    kWorkers);
  });
  const double wall_speedup =
      graph_wall > 0.0 ? barrier_wall / graph_wall : 0.0;

  eval::Table t({"path", "modeled ms @8w", "util p10", "measured ms @8t",
                 "results"});
  t.add_row({"barrier stages", eval::Table::num(barrier_model, 1),
             eval::Table::pct(p10_barrier),
             eval::Table::num(barrier_wall, 1), "reference"});
  t.add_row({"job graph", eval::Table::num(graph_model, 1),
             eval::Table::pct(p10_graph), eval::Table::num(graph_wall, 1),
             identical ? "bit-identical" : "MISMATCH"});
  bench::emit(t, "skewed_fleet_jobgraph");
  bench::record_scalar("skew_speedup_8t", speedup);
  bench::record_scalar("skew_wall_speedup_8t", wall_speedup);
  bench::record_scalar("skew_util_p10_barrier", p10_barrier);
  bench::record_scalar("skew_util_p10_graph", p10_graph);
  bench::record_scalar("skew_bit_identical", identical ? 1.0 : 0.0);
  std::cout << "expected shape: >= 1.15x modeled speedup at 8 workers "
               "with a higher utilization floor; cell energies "
               "bit-identical between paths\n\n";
}

void BM_LegacySweep16(benchmark::State& state) {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const auto users = population(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_sweep_energy(users, cfg, suite));
  }
}
BENCHMARK(BM_LegacySweep16)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FleetSweep16(benchmark::State& state) {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const auto users = population(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet_sweep_energy(users, cfg, suite));
  }
}
BENCHMARK(BM_FleetSweep16)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SpillSweep16(benchmark::State& state) {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  cfg.store.cache_cap_bytes = 256 * 1024;
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const eval::EvalSession session(population(16), cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::run_fleet(session, suite));
  }
}
BENCHMARK(BM_SpillSweep16)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Population16(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_population(16, threads));
  }
}
BENCHMARK(BM_Population16)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

NETMASTER_BENCH_MAIN()
