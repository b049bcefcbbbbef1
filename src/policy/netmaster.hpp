// NetMasterPolicy — the paper's full system as an online policy.
//
// Construction mines the training trace (habit model + special apps,
// one pass: mining::mine_habits), or takes an already-mined one.
// At run time, for each evaluation day it predicts the user-active slot
// set U (Eq. 2 with the δ thresholds) and the screen-off network-active
// structure, builds the overlapped-knapsack instance over the pending
// deferrable activities (§IV-A step 3) with sched::build_instance — the
// one builder, handed the predicted Wi-Fi presence windows too when
// offload is on — solves it with Algorithm 1 (sched::solve_overlapped,
// ε = 0.1 by default, §V-C), and executes:
//
//   * activities assigned to a following slot release at that slot's
//     begin — unless the user actually turns the screen on first, in
//     which case the real-time adjustment powers the radio and the
//     transfer piggybacks on the real session;
//   * activities assigned to a preceding slot are prefetched: the app
//     is triggered to sync during the slot (the transfer executes at
//     the end of the slot, kept inside the horizon by
//     policy::placed_release, the rule the oracle's placement shares);
//   * unassigned / unpredicted activities fall back to the duty-cycle
//     path: they release at the next wake-up probe (exponential
//     back-off by default, §IV-C.2);
//   * a deferred copy runs for at least 500 ms (deferred_duration); an
//     arrival too close to the horizon for it to finish runs in place
//     (policy::deferred_release, the rule every deferring policy uses);
//   * foreground usage outside predicted slots powers the radio when
//     the app is a "Special App"; otherwise the user must re-enable
//     data manually — a wrong decision, counted as an interrupt
//     (§VI-B).
//
// Ablation switches knock out prediction, duty cycling, or special-app
// tracking for the component analysis bench.
#pragma once

#include <cstdint>

#include "duty/duty_cycle.hpp"
#include "mining/habits.hpp"
#include "mining/special_apps.hpp"
#include "policy/policy.hpp"
#include "sched/instance.hpp"
#include "sched/solver.hpp"

namespace netmaster::policy {

/// Guard rails for running on untrusted training data. When the mined
/// habit model is too weak to trust — too few training days survived,
/// or the pooled confidence (which folds in the sanitizer's
/// data-quality score) is below threshold — NetMaster refuses to bet on
/// its predictions and substitutes the safe delay-batch schedule (one
/// fixed deferral interval, netmaster.cpp), which needs no model at
/// all. The taken path is reported in the outcome.
struct RobustnessConfig {
  double min_confidence = 0.25;  ///< HabitModel::overall_confidence gate
  int min_training_days = 2;     ///< Eq. 2 needs at least a flip of days
};

struct NetMasterConfig {
  mining::PredictorConfig predictor;  ///< δ = 0.2 weekday / 0.1 weekend
  sched::ProfitConfig profit;
  double eps = 0.1;  ///< SinKnap ε (§V-C)
  /// Which SinKnap backend Algorithm 1 runs per slot. The default
  /// (FPTAS) reproduces the paper's schedules bit for bit; `kGreedy`
  /// trades the (1−ε)/2 guarantee for speed and `kAuto` upgrades small
  /// slots to the exact DP. See sched/solver.hpp.
  sched::SolverChoice solver = sched::SolverChoice::kFptas;
  duty::DutyConfig duty;
  RobustnessConfig robustness;

  // Ablation switches (all on = the paper's system).
  bool enable_prediction = true;
  bool enable_duty = true;
  bool enable_special_apps = true;

  /// Multi-radio co-scheduling: when set (and prediction is enabled),
  /// the knapsack also offers the habit model's predicted Wi-Fi
  /// presence windows as offload knapsacks (profit.wifi /
  /// profit.wifi_bandwidth_kbps describe the WLAN), and activities the
  /// solver assigns there execute on Wi-Fi instead of cellular. Off by
  /// default: the paper's single-radio system is the baseline and all
  /// its schedules stay bit-identical.
  bool enable_wifi_offload = false;

  /// When set, the radio stays powered across whole predicted active
  /// slots (tails run freely inside U) and in-slot traffic is left
  /// untouched, instead of the default aggressive in-slot dormancy.
  /// This is the configuration of the paper's Fig. 10c threshold sweep:
  /// it makes the δ tradeoff visible — small δ widens U and wastes
  /// radio-on time, large δ narrows U and risks the user.
  bool slot_powered_radio = false;
};

class NetMasterPolicy final : public Policy {
 public:
  /// Mines `training` and fixes the configuration. Tolerant: corrupted
  /// training data is sanitized by the miner and, when too much is lost
  /// (see RobustnessConfig), the policy degrades to the safe delay-batch
  /// schedule instead of acting on an untrustworthy model. The
  /// evaluation trace handed to run() must share the training trace's
  /// app population and weekday alignment (slice evaluation windows at
  /// multiples of 7 days so Eq. 2's weekday/weekend split stays valid).
  NetMasterPolicy(const UserTrace& training, NetMasterConfig config);

  /// Construction from an already-mined training trace
  /// (mining::mine_habits), through the same validation and
  /// degradation gate: bit-identical to the trace constructor on the
  /// trace `habits` was mined from. The fleet evaluator builds every
  /// NetMaster cell this way from its session's one mine per user.
  NetMasterPolicy(mining::MinedHabits habits, NetMasterConfig config);

  /// Model-injection construction: runs on an externally-mined model
  /// and special-app set instead of mining a training trace, through
  /// the same validation and degradation gate. The daemon's drift
  /// refresh uses it: a re-mined model keeps the special apps of the
  /// policy it replaces. With the model mined from the same trace,
  /// both constructors produce bit-identical policies.
  NetMasterPolicy(mining::HabitModel model, mining::SpecialApps special,
                  NetMasterConfig config);

  using Policy::run;

  std::string name() const override { return "netmaster"; }
  sim::PolicyOutcome run(const engine::TraceIndex& eval) const override;

  const mining::SlotPredictor& predictor() const { return predictor_; }
  const mining::SpecialApps& special_apps() const { return special_; }
  const NetMasterConfig& config() const { return config_; }

  /// True when run() will take the degraded fallback path.
  bool degraded() const { return !degraded_reason_.empty(); }
  /// Why the policy degraded; empty on the normal path.
  const std::string& degraded_reason() const { return degraded_reason_; }

 private:
  /// Shared tail of both constructors: config validation plus the
  /// degradation gate (sets degraded_reason_, bumps metrics).
  void validate_and_gate();

  NetMasterConfig config_;
  mining::SlotPredictor predictor_;
  mining::SpecialApps special_;
  std::string degraded_reason_;
};

}  // namespace netmaster::policy
