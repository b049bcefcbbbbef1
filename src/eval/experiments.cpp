#include "eval/experiments.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "eval/fleet.hpp"
#include "eval/sweep.hpp"
#include "mining/habits.hpp"
#include "policy/baseline.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"

namespace netmaster::eval {

namespace {

/// Derives a ComparisonRow from one fleet cell and the user's baseline
/// reference report.
ComparisonRow cell_row(const FleetCell& cell,
                       const sim::SimReport& baseline) {
  ComparisonRow row;
  row.policy = cell.policy;
  row.report = cell.report;
  row.energy_saving = cell.energy_saving;
  row.radio_on_fraction = cell.radio_on_fraction;
  auto ratio = [](double v, double base) {
    return base > 0.0 ? v / base : 0.0;
  };
  row.down_rate_ratio =
      ratio(row.report.avg_down_rate_kbps, baseline.avg_down_rate_kbps);
  row.up_rate_ratio =
      ratio(row.report.avg_up_rate_kbps, baseline.avg_up_rate_kbps);
  row.peak_down_ratio =
      ratio(row.report.peak_down_rate_kbps, baseline.peak_down_rate_kbps);
  row.peak_up_ratio =
      ratio(row.report.peak_up_rate_kbps, baseline.peak_up_rate_kbps);
  return row;
}

/// Folds one sweep point's single-policy column into the averaged
/// Fig. 8 / Fig. 9 metrics, in fixed user order. Failed cells are
/// skipped (and shrink the denominator) instead of aborting the sweep.
SweepPoint reduce_sweep_point(double x, const EvalSession& session,
                              const FleetReport& report) {
  SweepPoint point;
  point.x = x;
  std::size_t n = 0;
  for (std::size_t u = 0; u < session.num_users(); ++u) {
    const FleetCell& cell = report.at(u, 0);
    if (cell.failed) continue;
    ++n;
    const sim::SimReport& base = session.baseline(u);
    point.energy_saving += cell.energy_saving;
    if (base.radio_on_ms > 0) {
      point.radio_on_reduction += 1.0 - cell.radio_on_fraction;
    }
    if (base.avg_down_rate_kbps > 0.0) {
      point.bandwidth_increase +=
          cell.report.avg_down_rate_kbps / base.avg_down_rate_kbps - 1.0;
    }
    point.affected_fraction += cell.report.affected_fraction;
  }
  if (n > 0) {
    const auto count = static_cast<double>(n);
    point.energy_saving /= count;
    point.radio_on_reduction /= count;
    point.bandwidth_increase /= count;
    point.affected_fraction /= count;
  }
  return point;
}

PolicySpec baseline_spec() {
  return {"baseline",
          [](TrainingTrace) {
            return std::make_unique<policy::BaselinePolicy>();
          },
          {}};
}

}  // namespace

std::vector<VolunteerComparison> compare_all(const EvalSession& session,
                                             unsigned max_threads) {
  const auto suite = standard_policy_suite(session.config().netmaster);
  const FleetReport report = run_fleet(session, suite, max_threads);

  std::vector<VolunteerComparison> results(session.num_users());
  for (std::size_t u = 0; u < session.num_users(); ++u) {
    VolunteerComparison& cmp = results[u];
    cmp.user = session.user_id(u);
    cmp.profile_name = session.profile_name(u);
    if (!session.ok(u)) continue;  // rows stay empty; see FleetFailure
    cmp.baseline = session.baseline(u);
    cmp.rows.reserve(suite.size());
    for (std::size_t p = 0; p < suite.size(); ++p) {
      cmp.rows.push_back(cell_row(report.at(u, p), cmp.baseline));
    }
  }
  return results;
}

std::vector<SweepPoint> delay_sweep(const EvalSession& session,
                                    const std::vector<double>& delays_s,
                                    unsigned max_threads) {
  return sweep(
      session, delays_s,
      [](double d) {
        std::vector<PolicySpec> specs;
        if (d <= 0.0) {
          specs.push_back(baseline_spec());
        } else {
          specs.push_back(
              {"delay-" + std::to_string(static_cast<int>(d)) + "s",
               [d](TrainingTrace) {
                 return std::make_unique<policy::DelayPolicy>(seconds(d));
               },
               {}});
        }
        return specs;
      },
      [&session](double d, const FleetReport& report) {
        return reduce_sweep_point(d, session, report);
      },
      max_threads);
}

std::vector<SweepPoint> batch_sweep(const EvalSession& session,
                                    const std::vector<std::size_t>& sizes,
                                    unsigned max_threads) {
  return sweep(
      session, sizes,
      [](std::size_t n) {
        std::vector<PolicySpec> specs;
        specs.push_back({"batch-" + std::to_string(n),
                         [n](TrainingTrace) {
                           return std::make_unique<policy::BatchPolicy>(n);
                         },
                         {}});
        return specs;
      },
      [&session](std::size_t n, const FleetReport& report) {
        return reduce_sweep_point(static_cast<double>(n), session, report);
      },
      max_threads);
}

std::vector<ThresholdPoint> threshold_sweep(
    const EvalSession& session, const std::vector<double>& deltas,
    unsigned max_threads) {
  // The oracle report is δ-invariant: one fleet column per user,
  // computed once instead of once per sweep point.
  std::vector<PolicySpec> oracle_suite;
  oracle_suite.push_back(
      {"oracle",
       [profit = session.config().netmaster.profit](TrainingTrace) {
         return std::make_unique<policy::OraclePolicy>(profit);
       },
       {}});
  const FleetReport oracle = run_fleet(session, oracle_suite, max_threads);

  const policy::NetMasterConfig& base_nm = session.config().netmaster;
  return sweep(
      session, deltas,
      [&base_nm](double delta) {
        policy::NetMasterConfig nm = base_nm;
        nm.predictor.delta_weekday = delta;
        nm.predictor.delta_weekend = delta;
        nm.slot_powered_radio = true;  // the paper's Fig. 10c setting
        std::vector<PolicySpec> specs;
        specs.push_back(
            {"netmaster",
             [nm](TrainingTrace training) {
               return std::make_unique<policy::NetMasterPolicy>(
                   training.habits(), nm);
             },
             // Fig. 10c's y axis that lives on the policy, not in the
             // SimReport: the predictor's accuracy on the eval trace.
             [](const policy::Policy& p, const VolunteerTraces& traces) {
               const auto& netmaster =
                   static_cast<const policy::NetMasterPolicy&>(p);
               return mining::prediction_accuracy(netmaster.predictor(),
                                                  traces.eval);
             }});
        return specs;
      },
      [&session, &oracle](double delta, const FleetReport& report) {
        ThresholdPoint point;
        point.delta = delta;
        std::size_t n = 0;
        for (std::size_t u = 0; u < session.num_users(); ++u) {
          const FleetCell& cell = report.at(u, 0);
          const FleetCell& oracle_cell = oracle.at(u, 0);
          if (cell.failed || oracle_cell.failed) continue;
          ++n;
          point.accuracy += cell.probe_value;
          const sim::SimReport& base = session.baseline(u);
          const double saving = base.energy_j - cell.report.energy_j;
          const double oracle_saving =
              base.energy_j - oracle_cell.report.energy_j;
          if (oracle_saving > 0.0) {
            point.energy_saving +=
                std::max(saving, 0.0) / oracle_saving;
          }
        }
        if (n > 0) {
          point.accuracy /= static_cast<double>(n);
          point.energy_saving /= static_cast<double>(n);
        }
        return point;
      },
      max_threads);
}

namespace {

/// One knock-out variant of the ablation study.
struct AblationVariant {
  const char* name;
  bool prediction, duty, special;
};

}  // namespace

std::vector<AblationRow> ablation_study(const EvalSession& session,
                                        unsigned max_threads) {
  const std::vector<AblationVariant> variants = {
      {"full", true, true, true},
      {"no-prediction", false, true, true},
      {"no-duty-cycle", true, false, true},
      {"no-special-apps", true, true, false},
  };
  const policy::NetMasterConfig& base_nm = session.config().netmaster;
  return sweep(
      session, variants,
      [&base_nm](const AblationVariant& variant) {
        policy::NetMasterConfig nm = base_nm;
        nm.enable_prediction = variant.prediction;
        nm.enable_duty = variant.duty;
        nm.enable_special_apps = variant.special;
        std::vector<PolicySpec> specs;
        specs.push_back(
            {variant.name,
             [nm](TrainingTrace training) {
               return std::make_unique<policy::NetMasterPolicy>(
                   training.habits(), nm);
             },
             {}});
        return specs;
      },
      [&session](const AblationVariant& variant,
                 const FleetReport& report) {
        AblationRow row;
        row.variant = variant.name;
        std::size_t n = 0;
        for (std::size_t u = 0; u < session.num_users(); ++u) {
          const FleetCell& cell = report.at(u, 0);
          if (cell.failed) continue;
          ++n;
          row.energy_saving += cell.energy_saving;
          row.affected_fraction += cell.report.affected_fraction;
          row.mean_deferral_latency_s +=
              cell.report.mean_deferral_latency_s;
          row.wake_count += static_cast<double>(cell.report.wake_count);
        }
        if (n > 0) {
          const auto count = static_cast<double>(n);
          row.energy_saving /= count;
          row.affected_fraction /= count;
          row.mean_deferral_latency_s /= count;
          row.wake_count /= count;
        }
        return row;
      },
      max_threads);
}

std::vector<SolverAblationRow> solver_ablation_study(
    const EvalSession& session, unsigned max_threads) {
  const std::vector<PolicySpec> roster =
      solver_ablation_suite(session.config().netmaster);
  const FleetReport report = run_fleet(session, roster, max_threads);
  std::vector<SolverAblationRow> rows;
  rows.reserve(roster.size());
  for (std::size_t p = 0; p < roster.size(); ++p) {
    SolverAblationRow row;
    row.solver = roster[p].name;
    std::size_t n = 0;
    for (std::size_t u = 0; u < session.num_users(); ++u) {
      const FleetCell& cell = report.at(u, p);
      if (cell.failed) continue;
      ++n;
      row.energy_saving += cell.energy_saving;
      row.affected_fraction += cell.report.affected_fraction;
      row.mean_deferral_latency_s += cell.report.mean_deferral_latency_s;
    }
    if (n > 0) {
      const auto count = static_cast<double>(n);
      row.energy_saving /= count;
      row.affected_fraction /= count;
      row.mean_deferral_latency_s /= count;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace netmaster::eval
