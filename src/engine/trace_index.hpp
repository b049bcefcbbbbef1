// Shared replay index over one UserTrace — arena-backed and
// self-contained.
//
// Every policy and the online event loop need the same handful of
// derived facts about an evaluation trace: binary-searchable screen
// session boundaries, the set of deferrable screen-off activities (the
// class the paper's optimizations target), and per-(day, hour) activity
// buckets (the mining substrate). A TraceIndex computes all of them
// once; N policies replaying the same user then share one index instead
// of re-deriving the facts with per-policy O(n log s) scans.
//
// Memory model (ROADMAP item 2): at construction the index copies the
// trace's session/usage/activity columns into ONE arena as
// structure-of-arrays (mem::TraceColumns) and builds its derived
// columns — packed classification bits, u32 deferrable list, hour
// buckets — into the same arena. After that the index is
// self-contained: replay reads only arena memory, so the source
// UserTrace may be evicted to disk (eval::UserStore) while policies
// keep replaying. The old raw borrowed reference is replaced by a
// generation-checked mem::LifetimeHandle: `trace()` still exposes the
// source trace for callers that own it, but a moved-from or evicted
// source is caught with an Error instead of silently read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/time.hpp"
#include "mem/arena.hpp"
#include "mem/soa.hpp"
#include "trace/trace.hpp"

namespace netmaster::engine {

class TraceIndex {
 public:
  /// Indexes `trace` into an internally-owned arena. The index itself
  /// never dereferences the trace after construction; `trace()` remains
  /// valid only while the caller keeps the trace alive (no lifetime
  /// tracking on this overload — it exists for stack-local one-shot
  /// replays where the trace outlives the index by construction).
  /// Does not validate: policies accept the same traces they always
  /// did; call trace().validate() for strict checking.
  explicit TraceIndex(const UserTrace& trace);

  /// Fleet overload: builds every column into the caller's per-user
  /// `arena` and guards `trace()` with `source` — once the owner
  /// retires the lifetime (eviction, move-out), trace() throws instead
  /// of dereferencing freed memory. The arena must outlive the index
  /// and must not be reset while the index is alive.
  TraceIndex(const UserTrace& trace, mem::Arena& arena,
             mem::LifetimeHandle source);

  TraceIndex(TraceIndex&&) = default;
  TraceIndex& operator=(TraceIndex&&) = default;

  /// The source trace. Guarded: throws netmaster::Error when the
  /// owning lifetime was retired (the trace was evicted or moved
  /// from). Fleet replay paths must use the columnar accessors below,
  /// which stay valid regardless.
  const UserTrace& trace() const;

  /// True while the source trace behind trace() is still live.
  bool source_alive() const { return source_.alive(); }

  TimeMs horizon() const { return horizon_; }
  int num_days() const { return columns_.num_days; }
  UserId user() const { return columns_.user; }
  std::size_t num_apps() const { return columns_.app_names.size(); }

  /// Columnar views into the arena — the replay read path.
  const mem::SessionColumns& sessions() const { return columns_.sessions; }
  const mem::ActivityColumns& activities() const {
    return columns_.activities;
  }
  const mem::UsageColumns& usages() const { return columns_.usages; }
  const mem::AppNameTable& app_names() const { return columns_.app_names; }

  // ---- Session lookups (binary search over the sorted columns). ----

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
    return deferrable_flags_.test(activity_index);
  }

  /// Ascending indices of the deferrable screen-off activities.
  std::span<const std::uint32_t> deferrable_screen_off() const {
    return deferrable_;
  }

  // ---- Per-(day, hour) buckets (the mining substrate). ----

  struct HourBucket {
    int usage_count = 0;  ///< foreground interactions starting this hour
    int net_count = 0;    ///< screen-off network activities
    double net_bytes = 0.0;      ///< bytes moved by those activities
    int distinct_net_apps = 0;   ///< apps with screen-off traffic
  };

  const HourBucket& bucket(int day, int hour) const;

  /// Every bucket, day-major: bucket (d, h) is at d * kHoursPerDay + h.
  std::span<const HourBucket> buckets() const { return buckets_; }

  /// Accumulates `trace`'s per-(day, hour) buckets into `buckets` (one
  /// per (day, hour), day-major, zeroed by the caller). The one bucket
  /// fold: the index build calls it, and so does HabitModel::mine on a
  /// valid trace, which then needs no index at all. Events outside
  /// [0, horizon) are skipped; screen state is read with a monotone
  /// session cursor, O(sessions + events) on a time-ordered trace.
  static void fold_buckets(const UserTrace& trace,
                           std::span<HourBucket> buckets);

  /// Bytes of arena memory backing this index's columns (0 when the
  /// caller supplied the arena — the owner accounts for it there).
  std::size_t owned_arena_bytes() const {
    return owned_arena_ ? owned_arena_->bytes_reserved() : 0;
  }

  /// Throws netmaster::Error when an internal invariant is broken
  /// (sessions unsorted/overlapping, classification inconsistent with
  /// the trace, bucket totals not matching the event counts). Needs
  /// the source trace alive — it cross-checks columns against it.
  void check_invariants() const;

 private:
  void build(const UserTrace& trace, mem::Arena& arena);

  const UserTrace* trace_ = nullptr;
  mem::LifetimeHandle source_;
  std::unique_ptr<mem::Arena> owned_arena_;  ///< null on the fleet path
  TimeMs horizon_ = 0;
  mem::TraceColumns columns_;             ///< SoA trace copy, one arena
  mem::BitSpan deferrable_flags_;         ///< per activity index
  std::span<const std::uint32_t> deferrable_;  ///< ascending indices
  std::span<const HourBucket> buckets_;   ///< num_days * kHoursPerDay
};

}  // namespace netmaster::engine
