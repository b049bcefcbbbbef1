// Scheduling policies.
//
// A Policy replays an evaluation trace under its own rules and reports
// a sim::PolicyOutcome. Policies must be online in spirit: decisions at
// time t may use only the training data they were constructed with and
// the events at or before t — except OraclePolicy, which is explicitly
// the clairvoyant lower bound (§VI-A "off-line analysis to derive the
// optimal results").
//
// Implementations:
//   BaselinePolicy  — stock behaviour, everything at its original time
//   DelayPolicy     — fixed-interval delay-and-aggregate ([10], [2])
//   BatchPolicy     — aggregate up to N screen-off activities ([2])
//   OraclePolicy    — clairvoyant packing into real screen sessions
//   NetMasterPolicy — the paper's system (prediction + knapsack +
//                     real-time adjustment)
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "sim/outcome.hpp"
#include "trace/trace.hpp"

namespace netmaster::policy {

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Replays the indexed eval trace under this policy. The returned
  /// outcome executes every activity of the trace exactly once within
  /// its horizon. The index is shared, read-only state: fleet-scale
  /// callers build one TraceIndex per user and replay every policy
  /// against it.
  virtual sim::PolicyOutcome run(const engine::TraceIndex& eval) const = 0;

  /// One-shot convenience: indexes `eval` and replays it. Concrete
  /// policies re-expose this overload with `using Policy::run;`.
  sim::PolicyOutcome run(const UserTrace& eval) const;
};

/// True when the activity is fair game for deferral: a deferrable
/// (background) transfer that starts while the screen is off. This is
/// the class the paper's optimizations target.
bool is_deferrable_screen_off(const UserTrace& trace,
                              const NetworkActivity& activity);

/// Screen-off trickle transfers run on the slow shared channel (FACH)
/// under stock Android — that is why Fig. 1b's screen-off rates sit
/// below 1 kB/s. When a policy defers such a transfer and releases it
/// in a batch, the same bytes move over the dedicated channel (DCH) at
/// roughly the screen-on rate — this factor models that speedup and is
/// granted to *every* deferring policy (delay, batch, delay&batch,
/// oracle, NetMaster) alike.
inline constexpr double kDchSpeedup = 6.0;

/// Executed duration of a deferred screen-off transfer (floor 500 ms).
DurationMs deferred_duration(DurationMs original);

/// Release instant of a deferred copy of `dur` ms that wants to start
/// at `want`, for an activity that arrived at `start`: clamped to
/// [start, horizon − dur]. An arrival in the horizon's last `dur` ms
/// leaves no room for the copy (the bounds would invert); it runs in
/// place, so the result is `start`. The delay, batch and delay&batch
/// releases and NetMaster's deferrals and Wi-Fi offloads use this rule.
/// Inline: NetMaster's replay calls it once per held activity.
inline TimeMs deferred_release(TimeMs want, TimeMs start, DurationMs dur,
                               TimeMs horizon) {
  NM_REQUIRE(dur >= 0, "duration must be non-negative");
  if (horizon - dur < start) return start;
  return std::clamp(want, start, horizon - dur);
}

/// Release instant of a placed copy of `dur` ms that wants to start at
/// `want` and, unlike a deferral, may start before its activity
/// arrived: NetMaster's prefetch and the oracle's session placement.
/// Clamped to [0, horizon − dur]. Precondition: horizon >= dur — the
/// copy fits the horizon (whole-day horizons and deferred durations of
/// seconds keep it); a violating input throws Error instead of handing
/// std::clamp inverted bounds.
inline TimeMs placed_release(TimeMs want, DurationMs dur, TimeMs horizon) {
  NM_REQUIRE(dur >= 0 && horizon >= dur,
             "a placed copy must fit the horizon");
  return std::clamp<TimeMs>(want, 0, horizon - dur);
}

/// A deferrable screen-off activity a baseline policy (delay, batch,
/// delay&batch) holds for a later release.
struct HeldActivity {
  std::size_t index = 0;  ///< eval activity index
  TimeMs arrival = 0;
  DurationMs duration = 0;  ///< original duration
};

/// Releases `held` toward `at`: the deferred copy (deferred_duration)
/// starts at deferred_release(at, …), and the wait is recorded as
/// blocked time and deferral latency. An activity that cannot move
/// later runs in place with its original duration.
void release_held(sim::PolicyOutcome& outcome, const HeldActivity& held,
                  TimeMs at, TimeMs horizon);

/// Releases every held activity toward `at` and empties `queue` — the
/// batching policies' flush.
void release_all(sim::PolicyOutcome& outcome,
                 std::vector<HeldActivity>& queue, TimeMs at,
                 TimeMs horizon);

}  // namespace netmaster::policy
