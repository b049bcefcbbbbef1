#include "trace/trace.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace netmaster {

double NetworkActivity::rate_kbps() const {
  if (duration <= 0) return 0.0;
  return static_cast<double>(total_bytes()) / 1000.0 / to_seconds(duration);
}

IntervalSet UserTrace::screen_on_set() const {
  IntervalSet set;
  for (const ScreenSession& s : sessions) set.add(s.begin, s.end);
  return set;
}

bool UserTrace::screen_on_at(TimeMs t) const {
  auto it = std::lower_bound(
      sessions.begin(), sessions.end(), t,
      [](const ScreenSession& s, TimeMs v) { return s.end <= v; });
  return it != sessions.end() && it->begin <= t && t < it->end;
}

const char* UserTrace::first_violation() const {
  if (num_days <= 0) return "trace must cover at least one day";
  const TimeMs end = trace_end();

  TimeMs prev_end = 0;
  for (const ScreenSession& s : sessions) {
    if (s.begin >= s.end) return "screen session must be non-empty";
    if (s.begin < prev_end) {
      return "screen sessions must be sorted and disjoint";
    }
    if (s.end > end) return "screen session beyond trace end";
    prev_end = s.end;
  }

  TimeMs prev = 0;
  for (const AppUsage& u : usages) {
    if (u.time < prev) return "app usages must be sorted by time";
    if (u.time < 0 || u.time >= end) return "app usage outside trace";
    if (u.duration < 0) return "app usage duration must be non-negative";
    if (u.app < 0 || static_cast<std::size_t>(u.app) >= app_names.size()) {
      return "app usage references unknown app id";
    }
    prev = u.time;
  }

  prev = 0;
  for (const NetworkActivity& n : activities) {
    if (n.start < prev) return "activities must be sorted by start";
    if (n.start < 0 || n.start >= end) return "activity outside trace";
    if (n.duration < 0) return "activity duration must be non-negative";
    if (n.start + n.duration > end) {
      return "activity must finish within the trace";
    }
    if (n.bytes_down < 0 || n.bytes_up < 0) {
      return "activity byte counts must be non-negative";
    }
    if (n.app < 0 || static_cast<std::size_t>(n.app) >= app_names.size()) {
      return "activity references unknown app id";
    }
    prev = n.start;
  }
  return nullptr;
}

void UserTrace::validate() const {
  const char* violation = first_violation();
  NM_REQUIRE(violation == nullptr, violation);
}

UserTrace UserTrace::slice_days(int first_day, int count) const {
  NM_REQUIRE(first_day >= 0 && count > 0 && first_day + count <= num_days,
             "day slice out of range");
  const TimeMs lo = day_start(first_day);
  const TimeMs hi = day_start(first_day + count);

  UserTrace out;
  out.user = user;
  out.num_days = count;
  out.app_names = app_names;

  for (const ScreenSession& s : sessions) {
    const Interval clipped = intersect(s.interval(), Interval{lo, hi});
    if (!clipped.empty()) {
      out.sessions.push_back({clipped.begin - lo, clipped.end - lo});
    }
  }
  for (const AppUsage& u : usages) {
    if (u.time >= lo && u.time < hi) {
      out.usages.push_back({u.app, u.time - lo, u.duration});
    }
  }
  for (const NetworkActivity& n : activities) {
    if (n.start >= lo && n.start < hi) {
      NetworkActivity shifted = n;
      shifted.start -= lo;
      // Clip transfers straddling the slice edge.
      shifted.duration =
          std::min<DurationMs>(shifted.duration, (hi - lo) - shifted.start);
      out.activities.push_back(shifted);
    }
  }
  return out;
}

}  // namespace netmaster
