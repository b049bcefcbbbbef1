// Event-driven online simulator.
//
// policy::NetMasterPolicy computes a whole-horizon plan (prediction +
// Algorithm 1 + real-time adjustment rules applied analytically). This
// module is its executive-layer cross-check: a genuine discrete-event
// loop that replays the evaluation trace event by event — screen edges,
// network arrivals, duty-cycle timers, midnight re-predictions — and
// makes every decision online, using only the mined model and the
// events seen so far. Deferred transfers are released at the first real
// radio opportunity (screen-on, duty wake, predicted slot begin), i.e.
// the greedy nearest-opportunity rule. The loop never runs Algorithm 1:
// the knapsack-planned placement lives only in the policy path.
// Agreement between the two paths (tested in online_sim_test) validates
// the real-time adjustment machinery.
//
// With adaptation enabled, the loop also drives the model's drift
// lifecycle (service/model_lifecycle.hpp): each completed day is closed
// at its midnight tick — the last day right after the loop — with its
// row of the evaluation trace's bucket fold (mining::fold_buckets), and
// an adopted refresh hot-swaps the predictor. daemon::UserSession runs
// the same lifecycle over a streamed record feed.
#pragma once

#include <cstddef>

#include "engine/trace_index.hpp"
#include "policy/netmaster.hpp"
#include "service/model_lifecycle.hpp"
#include "sim/outcome.hpp"
#include "trace/trace.hpp"

namespace netmaster::service {

struct OnlineSimResult {
  sim::PolicyOutcome outcome;      ///< accountable like any policy run
  std::size_t events_processed = 0;
  std::size_t radio_switches = 0;  ///< svc data enable/disable calls

  // Drift-adaptation telemetry (all zero when adaptation is off).
  double final_drift_score = 0.0;  ///< detector score at the horizon
  std::size_t drift_alarms = 0;    ///< distinct detector alarms
  std::size_t model_refreshes = 0; ///< re-mined models actually adopted
  int first_alarm_day = -1;        ///< eval day of the first alarm
};

/// One-shot convenience: indexes `eval` and replays it.
OnlineSimResult run_online(const UserTrace& training,
                           const UserTrace& eval,
                           const policy::NetMasterConfig& config);

/// Trains on `training`, then replays `eval` through the event loop,
/// reading its classification from `index` — the index of `eval`, so
/// fleet-scale callers share it with the policy path. With the default
/// `adapt` (enable == false) no detector or store runs; otherwise the
/// loop drives the drift lifecycle of ModelLifecycle, and `eval` must
/// share the training trace's weekday phase (slice at multiples of 7
/// days), as for NetMasterPolicy; the loop then folds `eval`'s buckets
/// once for its midnight summaries.
OnlineSimResult run_online(const UserTrace& training,
                           const UserTrace& eval,
                           const engine::TraceIndex& index,
                           const policy::NetMasterConfig& config,
                           const AdaptationConfig& adapt = {});

}  // namespace netmaster::service
