// Multi-radio figure — pluggable radio profiles and Wi-Fi co-scheduling.
//
// One sweep grid over the streaming population compares, per cellular
// generation (WCDMA / LTE CDRX / NR CDRX), the single-radio NetMaster
// schedule against the radio-aware co-scheduler that may offload
// activities to predicted Wi-Fi presence windows. Every point carries
// its own RadioSet override on the PolicySpec, so the whole comparison
// runs as ONE fleet over shared per-user indexes; cross-profile energy
// ratios are computed here from the raw cell energies against each
// point's own baseline column.
//
// Absorbs the retired bench_ext_lte: the WCDMA-vs-LTE rows of that
// figure are the first two single-radio points of this one.
//
// CI smoke gates (scalars):
//   * multiradio_cosched_beats_single == 1 — for every cellular
//     generation the co-scheduled energy is at or below the
//     single-radio energy, hence min(cosched) <= min(single);
//   * wcdma_bit_identical == 1 — the sweep's WCDMA single-radio column
//     equals a plain run_fleet through the seed configuration bit for
//     bit (the generalized accounting path reproduces the golden).
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/session.hpp"
#include "eval/sweep.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

struct RadioPoint {
  std::string name;
  RadioModel cellular;
  bool wifi_offload = false;
};

/// Roster of one point: a baseline column and a NetMaster column, both
/// accounted under the point's radio models.
std::vector<eval::PolicySpec> point_roster(
    const eval::ExperimentConfig& base, const RadioPoint& point) {
  policy::NetMasterConfig nm = base.netmaster;
  nm.profit.radio = point.cellular;
  nm.enable_wifi_offload = point.wifi_offload;
  RadioSet radios;
  radios.cellular = point.cellular;

  std::vector<eval::PolicySpec> roster;
  roster.push_back({"baseline[" + point.name + "]",
                    [](eval::TrainingTrace) {
                      return std::make_unique<policy::BaselinePolicy>();
                    },
                    {},
                    radios});
  roster.push_back({"netmaster[" + point.name + "]",
                    [nm](eval::TrainingTrace training) {
                      return std::make_unique<policy::NetMasterPolicy>(
                          training.habits(), nm);
                    },
                    {},
                    radios});
  return roster;
}

struct PointResult {
  std::string name;
  bool wifi_offload = false;
  double baseline_j = 0.0;
  double netmaster_j = 0.0;
  DurationMs radio_on_ms = 0;
  std::size_t interrupts = 0;
  std::size_t wifi_transfers = 0;
};

PointResult reduce_point(const RadioPoint& point,
                         const eval::FleetReport& report) {
  PointResult r;
  r.name = point.name;
  r.wifi_offload = point.wifi_offload;
  r.baseline_j = report.aggregates[0].total_energy_j;
  r.netmaster_j = report.aggregates[1].total_energy_j;
  for (std::size_t u = 0; u < report.num_users; ++u) {
    const eval::FleetCell& cell = report.at(u, 1);
    if (cell.failed) continue;
    r.radio_on_ms += cell.report.radio_on_ms;
    r.interrupts += cell.report.interrupts;
    r.wifi_transfers += cell.report.wifi_transfer_count;
  }
  return r;
}

void print_figure() {
  bench::banner(
      "Multi-radio — radio profiles and Wi-Fi co-scheduling",
      "the scheduler chooses which radio, not just when: offloading "
      "streaming flows to predicted Wi-Fi presence windows beats every "
      "single-radio schedule");

  eval::ExperimentConfig cfg;
  cfg.seed = bench::kDefaultSeed;
  const eval::EvalSession session(synth::streaming_population(), cfg);

  const std::vector<RadioPoint> points = {
      {"WCDMA", RadioModel::wcdma(), false},
      {"WCDMA+WiFi", RadioModel::wcdma(), true},
      {"LTE", RadioModel::lte_cdrx(), false},
      {"LTE+WiFi", RadioModel::lte_cdrx(), true},
      {"NR", RadioModel::nr_cdrx(), false},
      {"NR+WiFi", RadioModel::nr_cdrx(), true},
  };
  const std::vector<PointResult> results = eval::sweep(
      session, points,
      [&](const RadioPoint& p) { return point_roster(cfg, p); },
      reduce_point);

  eval::Table t({"radio", "baseline (J)", "netmaster (J)", "saving",
                 "radio-on (s)", "interrupts", "wifi transfers"});
  for (const PointResult& r : results) {
    const double saving =
        r.baseline_j > 0.0 ? 1.0 - r.netmaster_j / r.baseline_j : 0.0;
    t.add_row({r.name, eval::Table::num(r.baseline_j, 0),
               eval::Table::num(r.netmaster_j, 0), eval::Table::pct(saving),
               eval::Table::num(to_seconds(r.radio_on_ms), 0),
               std::to_string(r.interrupts),
               std::to_string(r.wifi_transfers)});
  }
  bench::emit(t, "multiradio");

  // Gate 1: per generation, co-scheduling never loses to single-radio.
  double best_single = std::numeric_limits<double>::infinity();
  double best_cosched = std::numeric_limits<double>::infinity();
  bool cosched_beats = true;
  std::size_t cosched_wifi_transfers = 0;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const PointResult& single = results[i];
    const PointResult& cosched = results[i + 1];
    if (cosched.netmaster_j > single.netmaster_j) cosched_beats = false;
    best_single = std::min(best_single, single.netmaster_j);
    best_cosched = std::min(best_cosched, cosched.netmaster_j);
    cosched_wifi_transfers += cosched.wifi_transfers;
  }
  // A co-scheduler that never offloads would "beat" vacuously.
  if (cosched_wifi_transfers == 0) cosched_beats = false;

  // Gate 2: the sweep's WCDMA single-radio column is bit-identical to a
  // plain fleet run through the session's seed configuration (no
  // per-spec radio override, the exact pre-multi-radio code path).
  std::vector<eval::PolicySpec> plain;
  plain.push_back({"netmaster",
                   [nm = cfg.netmaster](eval::TrainingTrace training) {
                     return std::make_unique<policy::NetMasterPolicy>(
                         training.habits(), nm);
                   },
                   {}});
  const eval::FleetReport golden = eval::run_fleet(session, plain);
  const bool bit_identical =
      golden.aggregates[0].total_energy_j == results[0].netmaster_j;

  bench::record_scalar("multiradio_cosched_energy_j", best_cosched);
  bench::record_scalar("best_single_radio_energy_j", best_single);
  bench::record_scalar("multiradio_cosched_beats_single",
                       cosched_beats ? 1.0 : 0.0);
  bench::record_scalar("cosched_wifi_transfers",
                       static_cast<double>(cosched_wifi_transfers));
  bench::record_scalar("wcdma_bit_identical", bit_identical ? 1.0 : 0.0);

  std::cout << "expected shape: every +WiFi row at or below its "
               "single-radio row; bulk podcast downloads offload, tiny "
               "syncs stay cellular\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
