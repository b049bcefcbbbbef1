// The interface between scheduling policies and the accounting
// simulator.
//
// A policy consumes an evaluation trace chronologically (online
// semantics are the policy's responsibility) and emits a PolicyOutcome:
// when each network activity actually executed, which windows the
// policy spent holding the radio off while work or users were waiting,
// the duty-cycle wake schedule, and explicit wrong decisions. The
// accounting layer (sim/accounting.hpp) turns an outcome into energy,
// radio-time, bandwidth, and user-experience metrics.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "duty/duty_cycle.hpp"
#include "power/radio_model.hpp"

namespace netmaster::sim {

/// How long the data switch keeps the radio up after a cellular
/// transfer before forcing dormancy: the release-signalling delay of
/// the §IV-C.2 real-time adjustment ("turning off the radio in the user
/// active slots timely"). The accountant applies it to every outcome
/// that drives the switch (PolicyOutcome::radio_allowed set).
inline constexpr DurationMs kDormancyGraceMs = 3000;

/// One network activity as actually executed by a policy.
struct ExecutedTransfer {
  std::size_t activity_index = 0;  ///< into the eval trace's activities
  TimeMs start = 0;                ///< executed start time
  DurationMs duration = 0;         ///< executed transfer time
  /// Which radio interface carried the transfer. Single-radio policies
  /// leave the default; the multi-radio co-scheduler assigns Wi-Fi
  /// offloads explicitly. Wi-Fi transfers are accounted on their own
  /// state machine and do not hold the cellular data switch open.
  RadioId radio = RadioId::kCellular;
};

/// Which decision path produced an outcome. Policies with a graceful
/// degradation mode (NetMaster) report when they abandoned their normal
/// algorithm for the safe fallback schedule.
enum class ExecutionPath {
  kNormal = 0,            ///< the policy's own algorithm ran
  kDegradedFallback = 1,  ///< safe fallback schedule was substituted
};

/// Everything a policy did over the evaluation window.
struct PolicyOutcome {
  std::string policy_name;

  /// Decision path taken (see ExecutionPath). When degraded,
  /// `degraded_reason` says why (low confidence, short training, ...).
  ExecutionPath path = ExecutionPath::kNormal;
  std::string degraded_reason;

  /// Habit-drift score in [0, 1] of the run's drift detector:
  /// service::run_online writes the lifecycle's score at the horizon;
  /// 0 when no detector watched the run.
  double drift_score = 0.0;

  /// Every activity of the eval trace, with its executed timing. A
  /// policy must execute each activity exactly once (checked by the
  /// accountant) — NetMaster defers, it never drops.
  std::vector<ExecutedTransfer> transfers;

  /// Windows in which the policy held the radio off although a user
  /// might need it (deferral windows of delay/batch schemes; inactive
  /// predicted slots for NetMaster when the fallback path failed).
  /// A foreground usage beginning inside one counts as affected.
  IntervalSet blocked;

  /// Duty-cycle wake probes (NetMaster only; empty otherwise).
  std::vector<duty::WakeEvent> wakes;

  /// When set, the policy drives a data switch (svc data enable/
  /// disable): the radio may be non-IDLE only inside the allowed set,
  /// so RRC tails are cut at its boundaries. The accountant derives
  /// that set itself: each executed cellular transfer held open for
  /// kDormancyGraceMs after it ends, and each duty wake window. This
  /// field lists only the *extra* allowed time (NetMaster's predicted
  /// slots when they power the radio); it is empty for a policy that
  /// just drives the switch. Unset models the stock radio with full
  /// tails.
  std::optional<IntervalSet> radio_allowed;

  /// Explicit wrong decisions: the user had to manually re-enable data
  /// (§VI-B). Counted in addition to blocked-window hits.
  std::size_t interrupts = 0;

  /// Unpredicted activities that were released by a duty-cycle wake.
  std::size_t duty_releases = 0;

  /// Per-deferred-activity latency (executed start − arrival), seconds.
  std::vector<double> deferral_latency_s;
};

}  // namespace netmaster::sim
