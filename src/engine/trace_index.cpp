#include "engine/trace_index.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace netmaster::engine {

namespace {

/// UserTrace::screen_on_at for a stream of instants over sessions
/// sorted by end (validate() and sanitize_trace guarantee it). A
/// non-decreasing query walks the cursor forward, so a time-ordered
/// stream costs O(s + q) in total instead of a binary search per query;
/// a backwards step re-seeks with screen_on_at's own lower_bound, so
/// every answer equals screen_on_at whatever the query order.
class ScreenCursor {
 public:
  explicit ScreenCursor(std::span<const ScreenSession> sessions)
      : sessions_(sessions) {}

  bool screen_on_at(TimeMs t) {
    if (t < last_) {
      next_ = static_cast<std::size_t>(
          std::lower_bound(sessions_.begin(), sessions_.end(), t,
                           [](const ScreenSession& s, TimeMs v) {
                             return s.end <= v;
                           }) -
          sessions_.begin());
    } else {
      while (next_ < sessions_.size() && sessions_[next_].end <= t) ++next_;
    }
    last_ = t;
    // sessions_[next_] is the first session ending after t.
    return next_ < sessions_.size() && sessions_[next_].begin <= t;
  }

 private:
  std::span<const ScreenSession> sessions_;
  std::size_t next_ = 0;  ///< first session with end > last_
  TimeMs last_ = std::numeric_limits<TimeMs>::min();
};

}  // namespace

TraceIndex::TraceIndex(const UserTrace& trace)
    : user_(trace.user),
      num_days_(trace.num_days),
      horizon_(trace.trace_end()) {
  const obs::SpanScope span("engine.index_build");
  // assign() on an empty vector allocates exactly the record count.
  sessions_.assign(trace.sessions.begin(), trace.sessions.end());
  usages_.assign(trace.usages.begin(), trace.usages.end());
  activities_.assign(trace.activities.begin(), trace.activities.end());
  deferrable_flags_.assign(activities_.size(), false);

  // Classification pass: one bit per activity, plus the compact
  // ascending index list (u32: a trace with > 4G activities would have
  // long blown the per-user budget).
  ScreenCursor screen(sessions_);
  for (std::size_t i = 0; i < activities_.size(); ++i) {
    const NetworkActivity& act = activities_[i];
    if (act.deferrable && !screen.screen_on_at(act.start)) {
      deferrable_flags_[i] = true;
      deferrable_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  deferrable_.shrink_to_fit();
}

bool TraceIndex::screen_on_at(TimeMs t) const {
  // The first session ending after t holds t if any session does.
  const auto it = std::ranges::upper_bound(sessions_, t, {},
                                           &ScreenSession::end);
  return it != sessions_.end() && it->begin <= t;
}

std::size_t TraceIndex::first_session_at_or_after(TimeMs t) const {
  const auto it = std::ranges::lower_bound(sessions_, t, {},
                                           &ScreenSession::begin);
  return static_cast<std::size_t>(it - sessions_.begin());
}

TimeMs TraceIndex::next_session_begin(TimeMs t, TimeMs fallback) const {
  const std::size_t idx = first_session_at_or_after(t);
  return idx < sessions_.size() ? sessions_[idx].begin : fallback;
}

TimeMs TraceIndex::last_session_begin_in(TimeMs lo, TimeMs hi) const {
  std::size_t idx = first_session_at_or_after(hi);
  if (idx == 0) return -1;
  const TimeMs begin = sessions_[idx - 1].begin;
  return begin >= lo ? begin : -1;
}

std::size_t TraceIndex::bytes() const {
  // vector<bool>'s capacity counts bits.
  return sessions_.capacity() * sizeof(ScreenSession) +
         usages_.capacity() * sizeof(AppUsage) +
         activities_.capacity() * sizeof(NetworkActivity) +
         (deferrable_flags_.capacity() + 7) / 8 +
         deferrable_.capacity() * sizeof(std::uint32_t);
}

void TraceIndex::check_invariants(const UserTrace& source) const {
  // The records must mirror the source trace exactly.
  NM_REQUIRE(user_ == source.user && num_days_ == source.num_days &&
                 horizon_ == source.trace_end(),
             "index: header drifted from the source trace");
  NM_REQUIRE(std::ranges::equal(sessions_, source.sessions) &&
                 std::ranges::equal(usages_, source.usages) &&
                 std::ranges::equal(activities_, source.activities),
             "index: records drifted from the source trace");

  // Sessions sorted, disjoint, non-empty (mirrors UserTrace::validate
  // so a corrupted index is caught even on traces nobody validated).
  TimeMs prev_end = 0;
  for (const ScreenSession& s : sessions_) {
    NM_REQUIRE(s.begin < s.end, "index: empty screen session");
    NM_REQUIRE(s.begin >= prev_end, "index: sessions unsorted/overlapping");
    prev_end = s.end;
  }

  // Every activity classified exactly once, and exactly as the
  // canonical predicate does on the raw trace.
  NM_REQUIRE(deferrable_flags_.size() == source.activities.size(),
             "index: classification size mismatch");
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < source.activities.size(); ++i) {
    const NetworkActivity& act = source.activities[i];
    const bool expect = act.deferrable && !source.screen_on_at(act.start);
    NM_REQUIRE(deferrable_flags_[i] == expect,
               "index: classification disagrees with the trace");
    if (deferrable_flags_[i]) ++flagged;
  }
  NM_REQUIRE(deferrable_.size() == flagged,
             "index: deferrable list size mismatch");
  for (std::size_t k = 0; k < deferrable_.size(); ++k) {
    NM_REQUIRE(deferrable_[k] < deferrable_flags_.size() &&
                   deferrable_flags_[deferrable_[k]],
               "index: deferrable list references unflagged activity");
    NM_REQUIRE(k == 0 || deferrable_[k - 1] < deferrable_[k],
               "index: deferrable list not strictly ascending");
  }
}

}  // namespace netmaster::engine
