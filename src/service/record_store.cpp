#include "service/record_store.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace netmaster::service {

RecordStore::RecordStore(std::size_t cache_bytes)
    : cache_capacity_(std::max<std::size_t>(cache_bytes / sizeof(Record),
                                            1)) {}

void RecordStore::append(const Record& record) {
  cache_.push_back(record);
  if (cache_.size() >= cache_capacity_) flush();
}

void RecordStore::flush() {
  if (cache_.empty()) return;
  bytes_flushed_ += cache_.size() * sizeof(Record);
  ++flush_count_;
  flash_.insert(flash_.end(), cache_.begin(), cache_.end());
  cache_.clear();
}

UserTrace RecordStore::to_trace(UserId user, int num_days,
                                std::vector<std::string> app_names) const {
  UserTrace trace = reconstruct(user, num_days, std::move(app_names));
  trace.validate();
  return trace;
}

fault::SanitizeResult RecordStore::to_trace_tolerant(
    UserId user, int num_days,
    std::vector<std::string> app_names) const {
  return fault::sanitize_trace(
      reconstruct(user, num_days, std::move(app_names)));
}

UserTrace RecordStore::reconstruct(
    UserId user, int num_days,
    std::vector<std::string> app_names) const {
  TraceRebuilder rebuild(user, num_days, std::move(app_names));
  for_each([&](const Record& r) { rebuild.add(r); });
  return std::move(rebuild).finish();
}

TraceRebuilder::TraceRebuilder(UserId user, int num_days,
                               std::vector<std::string> app_names) {
  trace_.user = user;
  trace_.num_days = num_days;
  trace_.app_names = std::move(app_names);
}

void TraceRebuilder::add(const Record& r) {
  switch (r.kind) {
    case RecordKind::kScreenOn:
      if (screen_on_since_ < 0) screen_on_since_ = r.time;
      break;
    case RecordKind::kScreenOff:
      if (screen_on_since_ >= 0 && r.time > screen_on_since_) {
        trace_.sessions.push_back({screen_on_since_, r.time});
      }
      screen_on_since_ = -1;
      break;
    case RecordKind::kAppForeground:
      trace_.usages.push_back({r.app, r.time, r.duration});
      break;
    case RecordKind::kNetworkActivity: {
      NetworkActivity n;
      n.app = r.app;
      n.start = r.time;
      n.duration = r.duration;
      n.bytes_down = r.bytes_down;
      n.bytes_up = r.bytes_up;
      n.user_initiated = r.user_initiated;
      n.deferrable = r.deferrable;
      trace_.activities.push_back(n);
      break;
    }
    case RecordKind::kNetworkSample:
      // Counter samples inform live decisions; the reconstructed
      // trace uses the per-activity records instead.
      break;
  }
}

UserTrace TraceRebuilder::finish() && {
  const TimeMs horizon = trace_.trace_end();
  if (screen_on_since_ >= 0 && screen_on_since_ < horizon) {
    trace_.sessions.push_back({screen_on_since_, horizon});
  }
  std::stable_sort(trace_.sessions.begin(), trace_.sessions.end(),
                   [](const ScreenSession& a, const ScreenSession& b) {
                     return a.begin < b.begin;
                   });
  std::stable_sort(trace_.usages.begin(), trace_.usages.end(),
                   [](const AppUsage& a, const AppUsage& b) {
                     return a.time < b.time;
                   });
  std::stable_sort(trace_.activities.begin(), trace_.activities.end(),
                   [](const NetworkActivity& a, const NetworkActivity& b) {
                     return a.start < b.start;
                   });
  return std::move(trace_);
}

}  // namespace netmaster::service
