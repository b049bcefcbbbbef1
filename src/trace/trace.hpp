// Trace data model.
//
// A `UserTrace` is the ground-truth record of one user's smartphone usage
// over a number of days: screen sessions (screen on and unlocked), app
// foreground interactions, and network activities. Traces are either
// synthesized (netmaster::synth) or loaded from CSV (trace_io), and are
// consumed by the mining layer (habit extraction), the simulator
// (workload replay), and the profiling benches (Figs. 1–5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"

namespace netmaster {

using UserId = int;
using AppId = int;

/// A contiguous period with the screen on and the keyboard unlocked —
/// the paper's "user active" condition.
struct ScreenSession {
  TimeMs begin = 0;
  TimeMs end = 0;

  Interval interval() const { return {begin, end}; }
  DurationMs length() const { return end - begin; }

  friend bool operator==(const ScreenSession&, const ScreenSession&) =
      default;
};

/// One foreground interaction with an app (the unit of the paper's
/// "usage intensity": total times of usage in an hour).
struct AppUsage {
  AppId app = 0;
  TimeMs time = 0;          ///< moment the interaction starts
  DurationMs duration = 0;  ///< foreground dwell time

  friend bool operator==(const AppUsage&, const AppUsage&) = default;
};

/// One network transfer performed by an app.
struct NetworkActivity {
  AppId app = 0;
  TimeMs start = 0;
  DurationMs duration = 0;       ///< active transfer time
  std::int64_t bytes_down = 0;
  std::int64_t bytes_up = 0;
  bool user_initiated = false;   ///< triggered by a foreground interaction
  bool deferrable = false;       ///< background sync-type; a policy may
                                 ///< reschedule it without hurting the user

  TimeMs end() const { return start + duration; }
  std::int64_t total_bytes() const { return bytes_down + bytes_up; }
  /// Mean transfer rate in kB/s (0 for zero-duration records).
  double rate_kbps() const;

  friend bool operator==(const NetworkActivity&, const NetworkActivity&) =
      default;
};

/// Complete record of one user's usage over `num_days` days.
///
/// Invariants (enforced by `validate()`): all event vectors sorted by
/// time, all timestamps within [0, num_days * kMsPerDay), screen sessions
/// disjoint, app ids within [0, app_names.size()).
struct UserTrace {
  UserId user = 0;
  int num_days = 0;
  std::vector<std::string> app_names;     ///< index == AppId
  std::vector<ScreenSession> sessions;    ///< sorted by begin, disjoint
  std::vector<AppUsage> usages;           ///< sorted by time
  std::vector<NetworkActivity> activities;  ///< sorted by start

  TimeMs trace_end() const {
    return static_cast<TimeMs>(num_days) * kMsPerDay;
  }

  /// Screen-on time as a canonical interval set.
  IntervalSet screen_on_set() const;

  /// True when the screen is on at instant t.
  bool screen_on_at(TimeMs t) const;

  /// The first violated invariant as a static message, or nullptr
  /// when the trace is valid. Never throws: the check behind validate()
  /// for callers that branch on validity.
  const char* first_violation() const;

  /// Throws netmaster::Error naming first_violation(), if any.
  void validate() const;

  /// Restricts the trace to days [first_day, first_day + count), shifting
  /// timestamps so the slice starts at t = 0. Activities straddling the
  /// slice edge are clipped out. Used to split traces into training and
  /// evaluation windows.
  UserTrace slice_days(int first_day, int count) const;
};

/// A population of user traces (e.g. the paper's 8 trace-study users or
/// 3 evaluation volunteers).
struct TraceSet {
  std::vector<UserTrace> users;
};

}  // namespace netmaster
