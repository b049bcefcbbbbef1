#include "policy/delay_batch.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace netmaster::policy {

DelayBatchPolicy::DelayBatchPolicy(DurationMs interval_ms)
    : interval_ms_(interval_ms),
      name_("delay&batch(" + std::to_string(interval_ms / kMsPerSecond) + "s)") {
  NM_REQUIRE(interval_ms > 0, "delay interval must be positive");
}

sim::PolicyOutcome DelayBatchPolicy::run(
    const engine::TraceIndex& eval) const {
  sim::PolicyOutcome outcome;
  outcome.policy_name = name();
  const TimeMs horizon = eval.horizon();
  const std::span<const NetworkActivity> activities = eval.activities();
  const std::span<const ScreenSession> sessions = eval.sessions();
  outcome.transfers.reserve(activities.size());

  std::vector<HeldActivity> queue;

  // Deadline of the oldest queued entry.
  auto deadline = [&]() { return queue.front().arrival + interval_ms_; };

  auto session = sessions.begin();
  for (std::size_t i = 0; i < activities.size(); ++i) {
    const NetworkActivity& act = activities[i];
    // Fire any timer/screen trigger preceding this activity.
    while (!queue.empty()) {
      const TimeMs timer = deadline();
      const TimeMs screen =
          session != sessions.end() ? session->begin : horizon;
      const TimeMs trigger = std::min(timer, screen);
      if (trigger > act.start) break;
      release_all(outcome, queue, trigger, horizon);
      if (screen == trigger && session != sessions.end()) ++session;
    }
    // Keep the session cursor moving even with an empty queue.
    while (session != sessions.end() && session->begin <= act.start) {
      ++session;
    }
    if (!eval.is_deferrable_screen_off(i)) {
      outcome.transfers.push_back({i, act.start, act.duration});
      continue;
    }
    queue.push_back({i, act.start, act.duration});
  }
  while (!queue.empty()) {
    const TimeMs timer = deadline();
    const TimeMs screen =
        session != sessions.end() ? session->begin : horizon;
    release_all(outcome, queue, std::min({timer, screen, horizon}),
                horizon);
    if (session != sessions.end() && screen <= timer) ++session;
  }
  return outcome;
}

}  // namespace netmaster::policy
