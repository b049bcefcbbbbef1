#include "testkit/injector.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace netmaster::fault {

namespace {

/// Removes elements with probability `rate`, returning the drop count.
template <typename T>
std::size_t drop_elements(std::vector<T>& v, double rate, Rng& rng) {
  std::size_t dropped = 0;
  std::vector<T> kept;
  kept.reserve(v.size());
  for (const T& e : v) {
    if (rng.bernoulli(rate)) {
      ++dropped;
    } else {
      kept.push_back(e);
    }
  }
  v = std::move(kept);
  return dropped;
}

/// Duplicates elements in place with probability `rate` (the copy lands
/// adjacent to the original, mimicking a twice-delivered record).
template <typename T>
std::size_t duplicate_elements(std::vector<T>& v, double rate, Rng& rng) {
  std::size_t duplicated = 0;
  std::vector<T> out;
  out.reserve(v.size());
  for (const T& e : v) {
    out.push_back(e);
    if (rng.bernoulli(rate)) {
      out.push_back(e);
      ++duplicated;
    }
  }
  v = std::move(out);
  return duplicated;
}

std::size_t apply_drop(UserTrace& t, double rate, Rng& rng) {
  std::size_t n = 0;
  n += drop_elements(t.sessions, rate, rng);
  n += drop_elements(t.usages, rate, rng);
  n += drop_elements(t.activities, rate, rng);
  return n;
}

std::size_t apply_duplicate(UserTrace& t, double rate, Rng& rng) {
  std::size_t n = 0;
  n += duplicate_elements(t.sessions, rate, rng);  // overlap: invalid
  n += duplicate_elements(t.usages, rate, rng);
  n += duplicate_elements(t.activities, rate, rng);
  return n;
}

std::size_t apply_reorder(UserTrace& t, double rate, Rng& rng) {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < t.usages.size(); i += 2) {
    if (rng.bernoulli(rate)) {
      std::swap(t.usages[i].time, t.usages[i + 1].time);
      ++n;
    }
  }
  for (std::size_t i = 0; i + 1 < t.activities.size(); i += 2) {
    if (rng.bernoulli(rate)) {
      std::swap(t.activities[i].start, t.activities[i + 1].start);
      ++n;
    }
  }
  return n;
}

std::size_t apply_field_corruption(UserTrace& t, double rate, Rng& rng) {
  std::size_t n = 0;
  const auto bad_app = static_cast<AppId>(t.app_names.size() + 3);
  for (NetworkActivity& a : t.activities) {
    if (!rng.bernoulli(rate)) continue;
    ++n;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        a.bytes_down = -(a.bytes_down + 1);
        break;
      case 1:
        a.duration = -(a.duration + kMsPerSecond);
        break;
      case 2:
        a.app = rng.bernoulli(0.5) ? bad_app : AppId{-7};
        break;
      default:
        a.start += t.trace_end();  // beyond the horizon
        break;
    }
  }
  for (AppUsage& u : t.usages) {
    if (!rng.bernoulli(rate)) continue;
    ++n;
    u.app = rng.bernoulli(0.5) ? bad_app : AppId{-3};
  }
  return n;
}

std::size_t apply_clock_skew(UserTrace& t, double rate, Rng& rng) {
  // Everything after a random pivot shifts by a signed offset whose
  // magnitude grows with the rate — negative offsets create
  // non-monotonic seams, large ones push events outside the horizon.
  const TimeMs horizon = t.trace_end();
  const TimeMs pivot =
      horizon > 0 ? rng.uniform_int(0, horizon - 1) : TimeMs{0};
  const auto magnitude =
      static_cast<TimeMs>(rate * 4.0 * static_cast<double>(kMsPerHour));
  const TimeMs offset = rng.bernoulli(0.5) ? magnitude : -magnitude;
  if (offset == 0) return 0;
  std::size_t n = 0;
  for (ScreenSession& s : t.sessions) {
    if (s.begin >= pivot) {
      s.begin += offset;
      s.end += offset;
      ++n;
    }
  }
  for (AppUsage& u : t.usages) {
    if (u.time >= pivot) {
      u.time += offset;
      ++n;
    }
  }
  for (NetworkActivity& a : t.activities) {
    if (a.start >= pivot) {
      a.start += offset;
      ++n;
    }
  }
  return n;
}

std::size_t apply_counter_reset(UserTrace& t, double rate, Rng& rng) {
  // A byte counter that wraps mid-sample yields a negative delta; the
  // monitoring layer records it verbatim.
  std::size_t n = 0;
  for (NetworkActivity& a : t.activities) {
    if (!rng.bernoulli(rate)) continue;
    a.bytes_down = a.bytes_down > 0 ? -a.bytes_down : -1;
    a.bytes_up = a.bytes_up > 0 ? -a.bytes_up : -1;
    ++n;
  }
  return n;
}

std::size_t apply_missing_screen_edge(UserTrace& t, double rate, Rng& rng) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < t.sessions.size(); ++i) {
    if (!rng.bernoulli(rate)) continue;
    ++n;
    ScreenSession& s = t.sessions[i];
    if (rng.bernoulli(0.5)) {
      // Missing OFF edge: the session runs on until (past) the next
      // session's start, producing an overlap.
      s.end = i + 1 < t.sessions.size()
                  ? t.sessions[i + 1].begin + kMsPerSecond
                  : s.end + kMsPerHour;
    } else {
      // Missing ON edge: only the off event survives — an empty
      // (invalid) session stub.
      s.end = s.begin;
    }
  }
  return n;
}

std::size_t apply_truncate_days(UserTrace& t, double rate) {
  // Cold start: the trailing `rate` fraction of history days never made
  // it into the store. Always leaves at least one day.
  const int keep = std::max(
      1, t.num_days - static_cast<int>(rate * t.num_days + 0.5));
  if (keep >= t.num_days) return 0;
  const TimeMs cut = day_start(keep);
  std::size_t n = 0;

  std::vector<ScreenSession> sessions;
  for (ScreenSession s : t.sessions) {
    if (s.begin >= cut) {
      ++n;
      continue;
    }
    if (s.end > cut) s.end = cut;
    sessions.push_back(s);
  }
  t.sessions = std::move(sessions);

  auto erase_after = [&](auto& v, auto time_of_event) {
    const std::size_t before = v.size();
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&](const auto& e) {
                             return time_of_event(e) >= cut;
                           }),
            v.end());
    return before - v.size();
  };
  n += erase_after(t.usages, [](const AppUsage& u) { return u.time; });
  n += erase_after(t.activities,
                   [](const NetworkActivity& a) { return a.start; });
  for (NetworkActivity& a : t.activities) {
    a.duration = std::min<DurationMs>(a.duration, cut - a.start);
  }
  t.num_days = keep;
  return n;
}

}  // namespace

InjectionResult inject_faults(const UserTrace& clean,
                              const FaultPlan& plan) {
  InjectionResult out{clean, {}};
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const FaultSpec& spec = plan.specs[i];
    NM_REQUIRE(spec.rate >= 0.0 && spec.rate <= 1.0,
               "fault rate must lie in [0, 1]");
    const auto kind_index = static_cast<std::uint64_t>(spec.kind);
    Rng rng(derive_seed(plan.seed, (i << 8) | kind_index));
    std::size_t n = 0;
    switch (spec.kind) {
      case FaultKind::kDropRecord:
        n = apply_drop(out.trace, spec.rate, rng);
        break;
      case FaultKind::kDuplicateRecord:
        n = apply_duplicate(out.trace, spec.rate, rng);
        break;
      case FaultKind::kReorderRecords:
        n = apply_reorder(out.trace, spec.rate, rng);
        break;
      case FaultKind::kFieldCorruption:
        n = apply_field_corruption(out.trace, spec.rate, rng);
        break;
      case FaultKind::kClockSkew:
        n = apply_clock_skew(out.trace, spec.rate, rng);
        break;
      case FaultKind::kCounterReset:
        n = apply_counter_reset(out.trace, spec.rate, rng);
        break;
      case FaultKind::kMissingScreenEdge:
        n = apply_missing_screen_edge(out.trace, spec.rate, rng);
        break;
      case FaultKind::kTruncateDays:
        n = apply_truncate_days(out.trace, spec.rate);
        break;
    }
    out.log.injected[static_cast<std::size_t>(spec.kind)] += n;
  }
  return out;
}

}  // namespace netmaster::fault
