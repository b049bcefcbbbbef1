#include "service/monitoring.hpp"

#include <algorithm>

namespace netmaster::service {

namespace {

// §V-A's byte-counter timers: every second while the screen is on,
// every 30 seconds while it is off.
constexpr DurationMs kScreenOnSampleMs = 1 * kMsPerSecond;
constexpr DurationMs kScreenOffSampleMs = 30 * kMsPerSecond;

}  // namespace

std::size_t MonitoringComponent::observe(const UserTrace& trace) {
  trace.validate();
  const std::size_t before = store_.size();

  // Event-triggered records, merged in time order.
  std::vector<Record> events;
  events.reserve(trace.sessions.size() * 2 + trace.usages.size() +
                 trace.activities.size());
  for_each_record(trace, [&](const Record& r) { events.push_back(r); });
  std::stable_sort(events.begin(), events.end(),
                   [](const Record& a, const Record& b) {
                     return a.time < b.time;
                   });

  // Time-triggered byte-counter samples: walk the timeline, switching
  // the sample period at screen edges. Cumulative counters follow the
  // activity list.
  std::size_t samples = 0;
  {
    const TimeMs horizon = trace.trace_end();
    std::size_t next_activity = 0;
    std::int64_t rx = 0, tx = 0;
    TimeMs t = 0;
    while (t < horizon) {
      const bool on = trace.screen_on_at(t);
      const DurationMs period = on ? kScreenOnSampleMs : kScreenOffSampleMs;
      const TimeMs next = std::min<TimeMs>(t + period, horizon);
      while (next_activity < trace.activities.size() &&
             trace.activities[next_activity].start < next) {
        rx += trace.activities[next_activity].bytes_down;
        tx += trace.activities[next_activity].bytes_up;
        ++next_activity;
      }
      store_.append({RecordKind::kNetworkSample, next, -1, rx, tx, 0,
                     false, false});
      ++samples;
      t = next;
    }
  }
  sample_records_ += samples;

  for (const Record& r : events) store_.append(r);
  event_records_ += events.size();
  return store_.size() - before;
}

}  // namespace netmaster::service
