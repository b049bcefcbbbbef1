#include "policy/delay.hpp"

#include "common/error.hpp"

namespace netmaster::policy {

DelayPolicy::DelayPolicy(DurationMs interval_ms)
    : interval_ms_(interval_ms),
      name_("delay(" + std::to_string(interval_ms / kMsPerSecond) + "s)") {
  NM_REQUIRE(interval_ms > 0, "delay interval must be positive");
}

sim::PolicyOutcome DelayPolicy::run(const engine::TraceIndex& eval) const {
  sim::PolicyOutcome outcome;
  outcome.policy_name = name();
  const TimeMs horizon = eval.horizon();
  const mem::ActivityColumns& activities = eval.activities();
  outcome.transfers.reserve(activities.size());

  for (std::size_t i = 0; i < activities.size(); ++i) {
    const NetworkActivity act = activities[i];
    if (!eval.is_deferrable_screen_off(i)) {
      outcome.transfers.push_back({i, act.start, act.duration});
      continue;
    }
    // Quantize to the end of the containing delay window.
    const TimeMs window_end =
        (act.start / interval_ms_ + 1) * interval_ms_;
    release_held(outcome, {i, act.start, act.duration}, window_end, horizon);
  }
  return outcome;
}

}  // namespace netmaster::policy
