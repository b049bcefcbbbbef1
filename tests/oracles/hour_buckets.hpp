// The total (day, hour) bucket fold, kept as a test oracle.
//
// mining::fold_buckets folds a valid trace in one validating pass with
// a forward session cursor and a per-app last-bucket stamp. This is the
// straightforward fold: total on any trace (events outside [0, horizon)
// and out-of-table apps are skipped), a binary search per screen query
// and an explicit per-(bucket, app) seen set. On a valid trace the two
// must agree cell for cell; mining_test fuzzes them against each other.
// Nothing outside tests/ calls it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mining/habits.hpp"
#include "trace/trace.hpp"

namespace netmaster::oracles {

inline mining::HourBuckets fold_buckets_total(const UserTrace& trace) {
  mining::HourBuckets out;
  out.num_apps = trace.app_names.size();
  out.cells.resize(static_cast<std::size_t>(std::max(trace.num_days, 0)) *
                   kHoursPerDay);
  const TimeMs horizon = trace.trace_end();
  for (const AppUsage& u : trace.usages) {
    if (u.time < 0 || u.time >= horizon) continue;
    ++out.cells[static_cast<std::size_t>(u.time / kMsPerHour)].usage_count;
  }
  std::vector<bool> app_seen(out.cells.size() * out.num_apps, false);
  for (const NetworkActivity& act : trace.activities) {
    if (act.start < 0 || act.start >= horizon) continue;
    if (trace.screen_on_at(act.start)) continue;  // screen-off only (Eq. 3)
    const auto b = static_cast<std::size_t>(act.start / kMsPerHour);
    mining::HourBucket& bucket = out.cells[b];
    ++bucket.net_count;
    bucket.net_bytes += static_cast<double>(act.total_bytes());
    if (act.app >= 0 && static_cast<std::size_t>(act.app) < out.num_apps) {
      const std::size_t bit =
          b * out.num_apps + static_cast<std::size_t>(act.app);
      if (!app_seen[bit]) {
        app_seen[bit] = true;
        ++bucket.distinct_net_apps;
      }
    }
  }
  return out;
}

}  // namespace netmaster::oracles
