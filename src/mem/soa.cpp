#include "mem/soa.hpp"

namespace netmaster::mem {

SessionColumns SessionColumns::build(
    std::span<const ScreenSession> sessions, Arena& arena) {
  const std::size_t n = sessions.size();
  std::span<TimeMs> begins = arena.alloc_array<TimeMs>(n);
  std::span<TimeMs> ends = arena.alloc_array<TimeMs>(n);
  for (std::size_t i = 0; i < n; ++i) {
    begins[i] = sessions[i].begin;
    ends[i] = sessions[i].end;
  }
  SessionColumns out;
  out.begins_ = begins;
  out.ends_ = ends;
  return out;
}

UsageColumns UsageColumns::build(std::span<const AppUsage> usages,
                                 Arena& arena) {
  const std::size_t n = usages.size();
  std::span<AppId> apps = arena.alloc_array<AppId>(n);
  std::span<TimeMs> times = arena.alloc_array<TimeMs>(n);
  std::span<DurationMs> durations = arena.alloc_array<DurationMs>(n);
  for (std::size_t i = 0; i < n; ++i) {
    apps[i] = usages[i].app;
    times[i] = usages[i].time;
    durations[i] = usages[i].duration;
  }
  UsageColumns out;
  out.apps_ = apps;
  out.times_ = times;
  out.durations_ = durations;
  return out;
}

ActivityColumns ActivityColumns::build(
    std::span<const NetworkActivity> activities, Arena& arena) {
  const std::size_t n = activities.size();
  std::span<AppId> apps = arena.alloc_array<AppId>(n);
  std::span<TimeMs> starts = arena.alloc_array<TimeMs>(n);
  std::span<DurationMs> durations = arena.alloc_array<DurationMs>(n);
  std::span<std::int64_t> down = arena.alloc_array<std::int64_t>(n);
  std::span<std::int64_t> up = arena.alloc_array<std::int64_t>(n);
  auto [user_init, user_init_words] = BitSpan::build(n, arena);
  auto [deferrable, deferrable_words] = BitSpan::build(n, arena);
  for (std::size_t i = 0; i < n; ++i) {
    const NetworkActivity& a = activities[i];
    apps[i] = a.app;
    starts[i] = a.start;
    durations[i] = a.duration;
    down[i] = a.bytes_down;
    up[i] = a.bytes_up;
    if (a.user_initiated) BitSpan::set(user_init_words, i);
    if (a.deferrable) BitSpan::set(deferrable_words, i);
  }
  ActivityColumns out;
  out.apps_ = apps;
  out.starts_ = starts;
  out.durations_ = durations;
  out.bytes_down_ = down;
  out.bytes_up_ = up;
  out.user_initiated_ = user_init;
  out.deferrable_ = deferrable;
  return out;
}

TraceColumns TraceColumns::build(const UserTrace& trace, Arena& arena) {
  TraceColumns out;
  out.user = trace.user;
  out.num_days = trace.num_days;
  out.sessions = SessionColumns::build(trace.sessions, arena);
  out.usages = UsageColumns::build(trace.usages, arena);
  out.activities = ActivityColumns::build(trace.activities, arena);
  return out;
}

}  // namespace netmaster::mem
