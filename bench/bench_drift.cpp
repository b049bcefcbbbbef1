// Extension — non-stationary users and drift adaptation (ROADMAP 5).
//
// Sweeps drift archetype (stationary / abrupt / gradual / seasonal)
// against the detector-driven adaptation loop (off vs on) and reports
// how much of the savings lost to a stale model the adaptive executive
// recovers, at what interruption cost. The reference for "lost" is a
// prescient run whose model is mined from the drifted evaluation trace
// itself — the ceiling any adaptation could reach on the same events.
// The stationary row doubles as the regression golden: with no drift,
// detector-on must replay bit-identically to detector-off (no alarms,
// no refreshes), which the CI smoke asserts from the emitted scalars.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "engine/trace_index.hpp"
#include "eval/session.hpp"
#include "policy/baseline.hpp"
#include "service/online_sim.hpp"
#include "sim/accounting.hpp"
#include "synth/drift.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

// Drift pairs whose habit structures genuinely differ. Drifting toward
// a habit-adjacent archetype is nearly energy-neutral for the online
// executive (batching at screen-on and duty wakes is model-free), so
// the population picks base → target pairs that shift activity volume
// and waking hours — the regime where a stale model measurably costs
// energy through mistimed releases and fruitless duty probes.
struct DriftUser {
  synth::Archetype base;
  synth::Archetype target;
};

constexpr DriftUser kUsers[] = {
    {synth::Archetype::kLightUser, synth::Archetype::kOfficeWorker},
    {synth::Archetype::kLightUser, synth::Archetype::kNightOwl},
    {synth::Archetype::kLightUser, synth::Archetype::kHeavyMessenger},
    {synth::Archetype::kCommuter, synth::Archetype::kNightOwl},
    {synth::Archetype::kCommuter, synth::Archetype::kHeavyMessenger},
    {synth::Archetype::kRetiree, synth::Archetype::kNightOwl},
};
constexpr int kNumUsers = static_cast<int>(std::size(kUsers));

// Long evaluation window: the detector needs a few days to alarm and
// the refreshed model then needs days to pay the alarm back, so a
// one-week horizon would under-report the achievable recovery.
eval::ExperimentConfig config() {
  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  cfg.train_days = 14;
  cfg.eval_days = 35;
  return cfg;
}

synth::DriftSpec spec_for(synth::DriftKind kind, synth::Archetype target) {
  synth::DriftSpec spec;
  spec.kind = kind;
  spec.target = target;
  spec.onset_day = 2;  // eval-relative: the mined model goes stale early
  spec.ramp_days = 7;
  spec.period_days = 14;
  return spec;
}

const char* kind_name(synth::DriftKind kind) {
  switch (kind) {
    case synth::DriftKind::kNone: return "stationary";
    case synth::DriftKind::kAbrupt: return "abrupt";
    case synth::DriftKind::kGradual: return "gradual";
    case synth::DriftKind::kSeasonal: return "seasonal";
  }
  return "?";
}

/// One user's prepared state for a drift kind, index built once and
/// shared by every detector cell. The traces live behind a stable
/// pointer because run_online reads them next to the index.
struct PreparedUser {
  std::unique_ptr<eval::VolunteerTraces> traces;
  std::unique_ptr<engine::TraceIndex> index;
  double baseline_energy_j = 0.0;
};

std::vector<PreparedUser> prepare(synth::DriftKind kind) {
  const eval::ExperimentConfig cfg = config();
  const RadioPowerParams radio = RadioPowerParams::wcdma();
  std::vector<PreparedUser> users;
  users.reserve(kNumUsers);
  for (int u = 0; u < kNumUsers; ++u) {
    eval::ExperimentConfig user_cfg = cfg;
    user_cfg.seed = cfg.seed + static_cast<std::uint64_t>(u);
    PreparedUser p;
    p.traces =
        std::make_unique<eval::VolunteerTraces>(eval::make_drifting_traces(
            synth::make_user(kUsers[u].base, u + 1), user_cfg,
            spec_for(kind, kUsers[u].target)));
    p.index = std::make_unique<engine::TraceIndex>(p.traces->eval);
    p.baseline_energy_j =
        sim::account(p.traces->eval,
                     policy::BaselinePolicy().run(p.traces->eval), radio)
            .energy_j;
    users.push_back(std::move(p));
  }
  return users;
}

enum class Cell {
  kDetectorOff,  ///< stale model, no adaptation
  kDetectorOn,   ///< full detect → re-mine → hot-swap loop
  kPrescient,    ///< model mined from the drifted eval itself (ceiling)
};

struct CellResult {
  double energy_j = 0.0;           ///< exact sum over users
  double baseline_energy_j = 0.0;
  StreamingStats saving;           ///< per-user 1 − E / E_baseline
  double worst_affected = 0.0;
  std::size_t alarms = 0;
  std::size_t refreshes = 0;

  double saving_agg() const { return 1.0 - energy_j / baseline_energy_j; }
};

CellResult run_cell(const std::vector<PreparedUser>& users, Cell cell) {
  const eval::ExperimentConfig cfg = config();
  const RadioPowerParams radio = RadioPowerParams::wcdma();
  service::AdaptationConfig adapt;
  adapt.enable = cell == Cell::kDetectorOn;
  CellResult out;
  for (const PreparedUser& p : users) {
    const UserTrace& training = cell == Cell::kPrescient
                                    ? p.traces->eval
                                    : p.traces->training;
    const service::OnlineSimResult r =
        service::run_online(training, p.traces->eval, *p.index,
                            cfg.netmaster, adapt);
    const sim::SimReport rep =
        sim::account(p.traces->eval, r.outcome, radio);
    out.energy_j += rep.energy_j;
    out.baseline_energy_j += p.baseline_energy_j;
    out.saving.add(1.0 - rep.energy_j / p.baseline_energy_j);
    out.worst_affected =
        std::max(out.worst_affected, rep.affected_fraction);
    out.alarms += r.drift_alarms;
    out.refreshes += r.model_refreshes;
  }
  return out;
}

void print_figure() {
  bench::banner(
      "Extension — drift adaptation (detector on vs off)",
      "a stale model bleeds savings under habit drift; the detector + "
      "re-mine loop recovers most of the loss while the stationary run "
      "stays bit-identical (paper assumes stationary users)");

  const std::vector<synth::DriftKind> kinds = {
      synth::DriftKind::kNone, synth::DriftKind::kAbrupt,
      synth::DriftKind::kGradual, synth::DriftKind::kSeasonal};

  eval::Table t({"drift", "detector", "saving", "saving min",
                 "worst affected", "alarms", "refreshes"});

  double stationary_saving = 0.0;
  double stationary_affected = 0.0;
  for (const synth::DriftKind kind : kinds) {
    const std::vector<PreparedUser> users = prepare(kind);
    const CellResult off = run_cell(users, Cell::kDetectorOff);
    const CellResult on = run_cell(users, Cell::kDetectorOn);
    const CellResult pre = run_cell(users, Cell::kPrescient);
    for (const auto* cell : {&off, &on}) {
      t.add_row({kind_name(kind), cell == &on ? "on" : "off",
                 eval::Table::pct(cell->saving_agg()),
                 eval::Table::pct(cell->saving.min()),
                 eval::Table::pct(cell->worst_affected, 2),
                 std::to_string(cell->alarms),
                 std::to_string(cell->refreshes)});
    }

    const std::string name = kind_name(kind);
    bench::record_scalar("drift_saving_" + name + "_off",
                         off.saving_agg());
    bench::record_scalar("drift_saving_" + name + "_on", on.saving_agg());
    bench::record_scalar("drift_saving_" + name + "_prescient",
                         pre.saving_agg());
    bench::record_scalar("drift_affected_" + name + "_on",
                         on.worst_affected);
    bench::record_scalar("drift_alarms_" + name,
                         static_cast<double>(on.alarms));
    bench::record_scalar("drift_refreshes_" + name,
                         static_cast<double>(on.refreshes));

    if (kind == synth::DriftKind::kNone) {
      stationary_saving = off.saving_agg();
      stationary_affected = off.worst_affected;
      // The regression golden: with no drift the adaptation loop must
      // be pure observation — same schedule bit for bit, no refreshes.
      const bool bitwise =
          off.energy_j == on.energy_j && on.refreshes == 0;
      bench::record_scalar("drift_stationary_bitwise",
                           bitwise ? 1.0 : 0.0);
    } else {
      // Recovery: the share of the drift-induced saving loss — stale
      // detector-off vs the prescient ceiling on the same traces —
      // the adaptive run wins back.
      const double lost = pre.saving_agg() - off.saving_agg();
      const double recovered = on.saving_agg() - off.saving_agg();
      bench::record_scalar("drift_recovery_" + name,
                           lost > 0.0 ? recovered / lost : 1.0);
    }
  }
  bench::record_scalar("drift_saving_stationary", stationary_saving);
  bench::record_scalar("drift_affected_stationary", stationary_affected);

  bench::emit(t);
  std::cout << "expected shape: detector-off savings sag under every "
               "drift kind; detector-on claws back >= 50% of the loss "
               "on the changepoint kinds (abrupt, gradual) with bounded "
               "interrupts, a smaller share on seasonal (each mode flip "
               "re-stales the freshly adopted model), and the "
               "stationary pair is bit-identical with zero refreshes\n\n";
}

// ---- Timings: the drift machinery itself. ----------------------------

void BM_DetectorSeedAndMonitor(benchmark::State& state) {
  // Full detector life-cycle: seed on 14 training days, adopt, then
  // monitor 35 evaluation days.
  const eval::ExperimentConfig cfg = config();
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(kUsers[0].base, 1), cfg,
      spec_for(synth::DriftKind::kAbrupt, kUsers[0].target));
  const mining::HourBuckets train_buckets =
      mining::fold_buckets(traces.training);
  const mining::HourBuckets eval_buckets = mining::fold_buckets(traces.eval);
  for (auto _ : state) {
    mining::DriftDetector detector;
    detector.observe_all(train_buckets);
    detector.notify_adapted();
    detector.observe_all(eval_buckets);
    benchmark::DoNotOptimize(detector.score());
  }
}
BENCHMARK(BM_DetectorSeedAndMonitor)->Unit(benchmark::kMicrosecond);

void BM_IncrementalFoldDay(benchmark::State& state) {
  const eval::ExperimentConfig cfg = config();
  const eval::VolunteerTraces traces = eval::make_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg);
  const mining::HourBuckets buckets = mining::fold_buckets(traces.training);
  const mining::DayContribution day =
      mining::IncrementalHabitMiner::summarize_day(0, buckets.day(0),
                                                   buckets.num_apps);
  mining::IncrementalHabitMiner miner(mining::IncrementalConfig{0.12});
  for (auto _ : state) {
    miner.observe_summary(day);
    benchmark::DoNotOptimize(miner.effective_days(day.kind));
  }
}
BENCHMARK(BM_IncrementalFoldDay)->Unit(benchmark::kNanosecond);

void BM_AdaptiveReplayAbrupt(benchmark::State& state) {
  const eval::ExperimentConfig cfg = config();
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(kUsers[0].base, 1), cfg,
      spec_for(synth::DriftKind::kAbrupt, kUsers[0].target));
  const engine::TraceIndex index(traces.eval);
  service::AdaptationConfig adapt;
  adapt.enable = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::run_online(traces.training, traces.eval, index,
                            cfg.netmaster, adapt));
  }
}
BENCHMARK(BM_AdaptiveReplayAbrupt)->Unit(benchmark::kMillisecond);

void BM_PlainReplayAbrupt(benchmark::State& state) {
  // The no-adaptation reference for the loop's overhead.
  const eval::ExperimentConfig cfg = config();
  const eval::VolunteerTraces traces = eval::make_drifting_traces(
      synth::make_user(kUsers[0].base, 1), cfg,
      spec_for(synth::DriftKind::kAbrupt, kUsers[0].target));
  const engine::TraceIndex index(traces.eval);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::run_online(traces.training, traces.eval, index,
                            cfg.netmaster));
  }
}
BENCHMARK(BM_PlainReplayAbrupt)->Unit(benchmark::kMillisecond);

}  // namespace

NETMASTER_BENCH_MAIN()
