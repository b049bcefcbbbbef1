#include "policy/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace netmaster::policy {

OraclePolicy::OraclePolicy(sched::ProfitConfig profit)
    : profit_(profit) {}

sim::PolicyOutcome OraclePolicy::run(const engine::TraceIndex& eval) const {
  sim::PolicyOutcome outcome;
  outcome.policy_name = name();
  const TimeMs horizon = eval.horizon();
  const mem::SessionColumns& sessions = eval.sessions();
  const mem::ActivityColumns& activities = eval.activities();
  outcome.transfers.reserve(activities.size());

  // Per-session residual capacity (Eq. 5 over the real sessions).
  std::vector<std::int64_t> residual;
  residual.reserve(sessions.size());
  for (const ScreenSession s : sessions) {
    residual.push_back(
        sched::slot_capacity_bytes(s.interval(), profit_));
  }

  // Arrivals come in start order on any validated trace, so the
  // session lookup is a forward cursor; a backwards step past a session
  // (TraceIndex does not validate ordering) re-seeks with the binary
  // search.
  const std::span<const TimeMs> begins = sessions.begins();
  std::size_t after = 0;  // first session with begin >= the arrival
  for (std::size_t i = 0; i < activities.size(); ++i) {
    const NetworkActivity act = activities[i];
    if (!eval.is_deferrable_screen_off(i) || sessions.empty()) {
      outcome.transfers.push_back({i, act.start, act.duration});
      continue;
    }

    // Nearest sessions before/after the arrival.
    if (after > 0 && begins[after - 1] >= act.start) {
      after = eval.first_session_at_or_after(act.start);
    }
    while (after < begins.size() && begins[after] < act.start) ++after;
    const std::ptrdiff_t next_idx =
        after == sessions.size() ? -1 : static_cast<std::ptrdiff_t>(after);
    const std::ptrdiff_t prev_idx =
        after == 0 ? -1 : static_cast<std::ptrdiff_t>(after) - 1;

    // Prefer the session with spare capacity whose anchor is closer.
    std::ptrdiff_t target = -1;
    const std::int64_t bytes = act.total_bytes();
    auto distance = [&](std::ptrdiff_t idx) -> TimeMs {
      const ScreenSession s = sessions[static_cast<std::size_t>(idx)];
      return idx == prev_idx ? act.start - s.end : s.begin - act.start;
    };
    for (std::ptrdiff_t idx : {prev_idx, next_idx}) {
      if (idx < 0) continue;
      if (residual[static_cast<std::size_t>(idx)] < bytes) continue;
      if (target < 0 || distance(idx) < distance(target)) target = idx;
    }
    if (target < 0) {
      // No adjacent capacity: the transfer runs where it was. (With
      // realistic bandwidths this branch is cold; it keeps the oracle
      // honest under tiny Eq. 5 capacities.)
      outcome.transfers.push_back({i, act.start, act.duration});
      continue;
    }

    const ScreenSession s = sessions[static_cast<std::size_t>(target)];
    residual[static_cast<std::size_t>(target)] -= bytes;
    // Place inside the session (at DCH speed): deferred activities at
    // the session start, prefetched ones ending at the session end.
    const DurationMs dur = deferred_duration(act.duration);
    TimeMs release = target == prev_idx
                         ? std::max(s.begin, s.end - dur)
                         : s.begin;
    release = placed_release(release, dur, horizon);
    outcome.transfers.push_back({i, release, dur});
    outcome.deferral_latency_s.push_back(
        to_seconds(std::max<TimeMs>(release - act.start, 0)));
  }

  // The oracle drives the data switch perfectly: after each transfer
  // the radio stays up only for a short dormancy grace (it cannot cut
  // instantly — release signalling takes a moment), then drops to IDLE.
  // The accountant derives those windows; the oracle adds none.
  outcome.radio_allowed = IntervalSet{};
  return outcome;
}

}  // namespace netmaster::policy
