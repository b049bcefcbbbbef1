#include "policy/batch.hpp"

#include <algorithm>
#include <vector>

namespace netmaster::policy {

BatchPolicy::BatchPolicy(std::size_t max_batch)
    : max_batch_(max_batch),
      name_("batch(" + std::to_string(max_batch) + ")") {}

sim::PolicyOutcome BatchPolicy::run(const engine::TraceIndex& eval) const {
  sim::PolicyOutcome outcome;
  outcome.policy_name = name();
  const TimeMs horizon = eval.horizon();
  const std::span<const NetworkActivity> activities = eval.activities();
  const std::span<const ScreenSession> sessions = eval.sessions();
  outcome.transfers.reserve(activities.size());

  std::vector<HeldActivity> queue;

  // Screen-on edges flush the queue: iterate activities and sessions in
  // time order.
  auto session = sessions.begin();

  for (std::size_t i = 0; i < activities.size(); ++i) {
    const NetworkActivity& act = activities[i];
    // Flush at any screen-on edge preceding this activity.
    while (session != sessions.end() && session->begin <= act.start) {
      release_all(outcome, queue, session->begin, horizon);
      ++session;
    }
    if (!eval.is_deferrable_screen_off(i) || max_batch_ <= 1) {
      outcome.transfers.push_back({i, act.start, act.duration});
      continue;
    }
    queue.push_back({i, act.start, act.duration});
    if (queue.size() >= max_batch_) {
      release_all(outcome, queue, act.start, horizon);
    }
  }
  // Remaining queue flushes at the next screen-on edge, else at the
  // horizon.
  if (!queue.empty()) {
    const TimeMs flush_at =
        session != sessions.end() ? session->begin : horizon;
    release_all(outcome, queue, flush_at, horizon);
  }
  return outcome;
}

}  // namespace netmaster::policy
