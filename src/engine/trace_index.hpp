// Shared replay index over one UserTrace — self-contained.
//
// Every policy, the online event loop and the accountant need the same
// handful of derived facts about an evaluation trace: binary-searchable
// screen session boundaries and the set of deferrable screen-off
// activities (the class the paper's optimizations target). A TraceIndex
// computes them once; N policies replaying the same user then share one
// index instead of re-deriving the facts with per-policy O(n log s)
// scans. It is the replay index only: the per-(day, hour) buckets
// habit mining reads are folded by mining::fold_buckets.
//
// Memory model: at construction the index copies the trace's session,
// usage and activity records into three exact-capacity vectors and
// classifies every activity once (a bit per activity plus the
// ascending u32 list of the deferrable ones). It keeps no reference to
// the source trace and no app names: replay and accounting
// (sim::trace_totals, sim::account) read only the index's own records,
// so the source UserTrace may be destroyed or evicted to disk
// (eval::UserStore) while policies keep replaying. Moving the index
// moves the vectors; spans taken before the move stay valid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "trace/trace.hpp"

namespace netmaster::engine {

class TraceIndex {
 public:
  /// Indexes a copy of `trace`'s records. The index never dereferences
  /// the trace after construction. Does not validate: policies accept
  /// the same traces they always did; call trace.validate() for strict
  /// checking.
  explicit TraceIndex(const UserTrace& trace);

  TraceIndex(TraceIndex&&) = default;
  TraceIndex& operator=(TraceIndex&&) = default;

  TimeMs horizon() const { return horizon_; }
  int num_days() const { return num_days_; }
  UserId user() const { return user_; }

  /// The trace's records, in trace order — the replay read path.
  std::span<const ScreenSession> sessions() const { return sessions_; }
  std::span<const AppUsage> usages() const { return usages_; }
  std::span<const NetworkActivity> activities() const { return activities_; }

  // ---- Session lookups (binary search over the sorted sessions). ----

  /// True when the screen is on at instant t (same contract as
  /// UserTrace::screen_on_at).
  bool screen_on_at(TimeMs t) const;

  /// Index of the first session with begin >= t; sessions().size()
  /// when none.
  std::size_t first_session_at_or_after(TimeMs t) const;

  /// Begin of the first session with begin >= t, or `fallback` when
  /// no session starts at or after t.
  TimeMs next_session_begin(TimeMs t, TimeMs fallback) const;

  /// Begin of the last session starting inside [lo, hi); -1 when none.
  TimeMs last_session_begin_in(TimeMs lo, TimeMs hi) const;

  // ---- Activity classification (computed once at construction). ----

  /// True when activity `activity_index` is a deferrable (background)
  /// transfer arriving while the screen is off — precomputed
  /// policy::is_deferrable_screen_off.
  bool is_deferrable_screen_off(std::size_t activity_index) const {
    return deferrable_flags_[activity_index];
  }

  /// Ascending indices of the deferrable screen-off activities.
  std::span<const std::uint32_t> deferrable_screen_off() const {
    return deferrable_;
  }

  /// Heap bytes the index holds: its record vectors and its
  /// classification (0 once moved from).
  std::size_t bytes() const;

  /// Throws netmaster::Error when an internal invariant is broken
  /// (records differing from `source`, sessions unsorted/overlapping,
  /// classification inconsistent with the trace). `source` is the trace
  /// the index was built from.
  void check_invariants(const UserTrace& source) const;

 private:
  UserId user_ = 0;
  int num_days_ = 0;
  TimeMs horizon_ = 0;
  std::vector<ScreenSession> sessions_;
  std::vector<AppUsage> usages_;
  std::vector<NetworkActivity> activities_;
  std::vector<bool> deferrable_flags_;    ///< per activity index
  std::vector<std::uint32_t> deferrable_;  ///< ascending indices
};

}  // namespace netmaster::engine
