#include "policy/policy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace netmaster::policy {

sim::PolicyOutcome Policy::run(const UserTrace& eval) const {
  return run(engine::TraceIndex(eval));
}

bool is_deferrable_screen_off(const UserTrace& trace,
                              const NetworkActivity& activity) {
  return activity.deferrable && !trace.screen_on_at(activity.start);
}

DurationMs deferred_duration(DurationMs original) {
  NM_REQUIRE(original >= 0, "duration must be non-negative");
  const auto sped = static_cast<DurationMs>(
      static_cast<double>(original) / kDchSpeedup);
  return std::max<DurationMs>(sped, 500);
}

void release_held(sim::PolicyOutcome& outcome, const HeldActivity& held,
                  TimeMs at, TimeMs horizon) {
  const DurationMs dur = deferred_duration(held.duration);
  const TimeMs release = deferred_release(at, held.arrival, dur, horizon);
  if (release > held.arrival) {
    outcome.transfers.push_back({held.index, release, dur});
    outcome.blocked.add(held.arrival, release);
    outcome.deferral_latency_s.push_back(to_seconds(release - held.arrival));
  } else {
    outcome.transfers.push_back({held.index, held.arrival, held.duration});
  }
}

void release_all(sim::PolicyOutcome& outcome,
                 std::vector<HeldActivity>& queue, TimeMs at,
                 TimeMs horizon) {
  for (const HeldActivity& held : queue) {
    release_held(outcome, held, at, horizon);
  }
  queue.clear();
}

}  // namespace netmaster::policy
