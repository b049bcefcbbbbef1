#include "fault/sanitize.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace netmaster::fault {

namespace {

bool valid_app(AppId app, std::size_t num_apps) {
  return app >= 0 && static_cast<std::size_t>(app) < num_apps;
}

}  // namespace

SanitizeResult sanitize_trace(const UserTrace& raw) {
  SanitizeResult out;
  UserTrace& t = out.trace;
  SanitizeReport& rep = out.report;

  t.user = raw.user;
  t.num_days = raw.num_days;
  if (t.num_days < 1) {
    t.num_days = 1;
    rep.day_count_repaired = true;
  }
  t.app_names = raw.app_names;
  const TimeMs end = t.trace_end();
  const std::size_t num_apps = t.app_names.size();
  rep.total_events =
      raw.sessions.size() + raw.usages.size() + raw.activities.size();

  // ---- App usages: drop unknown apps and out-of-horizon events,
  // clamp negative durations, restore time order. ----
  t.usages.reserve(raw.usages.size());
  for (AppUsage u : raw.usages) {
    if (!valid_app(u.app, num_apps) || u.time < 0 || u.time >= end) {
      ++rep.dropped_events;
      continue;
    }
    if (u.duration < 0) {
      u.duration = 0;
      ++rep.clamped_events;
    }
    t.usages.push_back(u);
  }
  if (!std::is_sorted(t.usages.begin(), t.usages.end(),
                      [](const AppUsage& a, const AppUsage& b) {
                        return a.time < b.time;
                      })) {
    std::stable_sort(t.usages.begin(), t.usages.end(),
                     [](const AppUsage& a, const AppUsage& b) {
                       return a.time < b.time;
                     });
    ++rep.resorted_streams;
  }

  // ---- Network activities: drop unknown apps and out-of-horizon
  // starts; clamp negative byte deltas (counter resets) to zero,
  // negative durations to zero, and clip transfers at the horizon. ----
  t.activities.reserve(raw.activities.size());
  for (NetworkActivity a : raw.activities) {
    if (!valid_app(a.app, num_apps) || a.start < 0 || a.start >= end) {
      ++rep.dropped_events;
      continue;
    }
    bool clamped = false;
    if (a.duration < 0) {
      a.duration = 0;
      clamped = true;
    }
    if (a.duration > end - a.start) {
      a.duration = end - a.start;
      clamped = true;
    }
    if (a.bytes_down < 0) {
      a.bytes_down = 0;
      clamped = true;
    }
    if (a.bytes_up < 0) {
      a.bytes_up = 0;
      clamped = true;
    }
    if (clamped) ++rep.clamped_events;
    t.activities.push_back(a);
  }
  if (!std::is_sorted(t.activities.begin(), t.activities.end(),
                      [](const NetworkActivity& a,
                         const NetworkActivity& b) {
                        return a.start < b.start;
                      })) {
    std::stable_sort(t.activities.begin(), t.activities.end(),
                     [](const NetworkActivity& a,
                        const NetworkActivity& b) {
                       return a.start < b.start;
                     });
    ++rep.resorted_streams;
  }

  // ---- Screen sessions: clip to the horizon, drop empty/inverted
  // stubs (missing ON edges), restore order, merge overlaps (missing
  // OFF edges). Touching sessions (begin == prev end) stay distinct —
  // they are valid. ----
  std::vector<ScreenSession> sessions;
  sessions.reserve(raw.sessions.size());
  for (ScreenSession s : raw.sessions) {
    const TimeMs begin = std::clamp<TimeMs>(s.begin, 0, end);
    const TimeMs finish = std::clamp<TimeMs>(s.end, 0, end);
    if (begin >= finish) {
      ++rep.dropped_events;
      continue;
    }
    if (begin != s.begin || finish != s.end) ++rep.clamped_events;
    sessions.push_back({begin, finish});
  }
  if (!std::is_sorted(sessions.begin(), sessions.end(),
                      [](const ScreenSession& a, const ScreenSession& b) {
                        return a.begin < b.begin;
                      })) {
    std::stable_sort(sessions.begin(), sessions.end(),
                     [](const ScreenSession& a, const ScreenSession& b) {
                       return a.begin < b.begin;
                     });
    ++rep.resorted_streams;
  }
  for (const ScreenSession& s : sessions) {
    if (!t.sessions.empty() && s.begin < t.sessions.back().end) {
      t.sessions.back().end = std::max(t.sessions.back().end, s.end);
      ++rep.merged_sessions;
    } else {
      t.sessions.push_back(s);
    }
  }

  // The whole point: the result is valid by construction (validate
  // throws if this ever regresses).
  out.trace.validate();

  // Degradation telemetry: the repair ledger, fleet-wide.
  struct SanitizeMetrics {
    obs::Counter& calls;
    obs::Counter& dropped;
    obs::Counter& clamped;
    obs::Counter& slots_repaired;
    obs::Counter& resorted;
  };
  static SanitizeMetrics metrics{
      obs::Registry::global().counter("fault.sanitize.calls"),
      obs::Registry::global().counter("fault.sanitize.dropped_events"),
      obs::Registry::global().counter("fault.sanitize.clamped_events"),
      obs::Registry::global().counter("fault.sanitize.slots_repaired"),
      obs::Registry::global().counter("fault.sanitize.resorted_streams"),
  };
  metrics.calls.add(1);
  metrics.dropped.add(rep.dropped_events);
  metrics.clamped.add(rep.clamped_events);
  metrics.slots_repaired.add(rep.merged_sessions);
  metrics.resorted.add(rep.resorted_streams);
  return out;
}

}  // namespace netmaster::fault
