// Experiment runners for the §VI evaluation — one function per figure
// family, shared by the bench binaries, the examples, and the
// integration tests. All runners are deterministic in their seeds and
// thread counts, and every one of them is a reduction over fleet runs:
// the per-user traces/indexes/baselines live in an eval::EvalSession
// (see session.hpp) and the replay grid goes through eval::run_fleet
// via the generic sweep driver (see sweep.hpp). Each runner takes the
// session the caller built, so consecutive figures or sweep
// invocations pay trace synthesis and indexing exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/session.hpp"
#include "sim/accounting.hpp"

namespace netmaster::eval {

/// One policy's results on one volunteer, with baseline-relative
/// derived metrics.
struct ComparisonRow {
  std::string policy;
  sim::SimReport report;
  double energy_saving = 0.0;      ///< 1 − E/E_baseline
  double radio_on_fraction = 0.0;  ///< radio-on / baseline radio-on
  double down_rate_ratio = 0.0;    ///< avg down kbps / baseline
  double up_rate_ratio = 0.0;
  double peak_down_ratio = 0.0;
  double peak_up_ratio = 0.0;
};

/// Fig. 7 experiment for one volunteer: the standard_policy_suite
/// roster (baseline, oracle, NetMaster, delay&batch at 10/20/60 s).
/// A volunteer whose preparation failed has empty `rows`.
struct VolunteerComparison {
  UserId user = 0;
  std::string profile_name;
  sim::SimReport baseline;
  std::vector<ComparisonRow> rows;
};

/// Runs the comparison suite for every session user through one fleet
/// grid.
std::vector<VolunteerComparison> compare_all(const EvalSession& session,
                                             unsigned max_threads = 0);

/// One point of the Fig. 8 / Fig. 9 sweeps, averaged over the users
/// whose cells completed (all of them on a healthy fleet).
struct SweepPoint {
  double x = 0.0;                   ///< delay seconds / batch size
  double energy_saving = 0.0;       ///< 1 − E/E_baseline
  double radio_on_reduction = 0.0;  ///< 1 − radio_on/baseline radio_on
  double bandwidth_increase = 0.0;  ///< avg rate / baseline − 1
  double affected_fraction = 0.0;   ///< affected usages / usages
};

/// Fig. 8: fixed-interval delay sweep.
std::vector<SweepPoint> delay_sweep(const EvalSession& session,
                                    const std::vector<double>& delays_s,
                                    unsigned max_threads = 0);

/// Fig. 9: batch-size sweep.
std::vector<SweepPoint> batch_sweep(const EvalSession& session,
                                    const std::vector<std::size_t>& sizes,
                                    unsigned max_threads = 0);

/// One point of the Fig. 10c prediction-threshold sweep.
struct ThresholdPoint {
  double delta = 0.0;
  double accuracy = 0.0;       ///< usages inside predicted slots
  double energy_saving = 0.0;  ///< saving / oracle saving
};

/// Fig. 10c: δ sweep (same δ applied to weekdays and weekends so the
/// x axis matches the paper's single-threshold plot).
std::vector<ThresholdPoint> threshold_sweep(
    const EvalSession& session, const std::vector<double>& deltas,
    unsigned max_threads = 0);

/// Component ablation (DESIGN.md's knock-out study): the full system
/// and each component disabled in turn, averaged over the users.
struct AblationRow {
  std::string variant;
  double energy_saving = 0.0;
  double affected_fraction = 0.0;
  double mean_deferral_latency_s = 0.0;
  double wake_count = 0.0;
};

std::vector<AblationRow> ablation_study(const EvalSession& session,
                                        unsigned max_threads = 0);

/// Solver ablation: end-to-end NetMaster metrics per SinKnap backend
/// (the eval::solver_ablation_suite roster replayed as one fleet grid),
/// averaged over the users whose cells completed. Quantifies what the
/// FPTAS buys over per-slot greedy on real traces — and what auto's
/// exact upgrades change (nothing, on byte-scale capacities).
struct SolverAblationRow {
  std::string solver;  ///< roster name, e.g. "netmaster[fptas]"
  double energy_saving = 0.0;
  double affected_fraction = 0.0;
  double mean_deferral_latency_s = 0.0;
};

std::vector<SolverAblationRow> solver_ablation_study(
    const EvalSession& session, unsigned max_threads = 0);

}  // namespace netmaster::eval
