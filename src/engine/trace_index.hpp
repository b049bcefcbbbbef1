// Shared replay index over one UserTrace — arena-backed and
// self-contained.
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
// Memory model: at construction the index copies the trace's
// session/usage/activity columns into ONE arena it owns as
// structure-of-arrays (mem::TraceColumns) and builds its derived
// columns — packed classification bits, u32 deferrable list — into the
// same arena. It keeps no reference to the source trace: replay and
// accounting (sim::trace_totals, sim::account) read only arena memory,
// so the source UserTrace may be destroyed or evicted to disk
// (eval::UserStore) while policies keep replaying.
// Moving the index moves the arena with it; the column views stay
// valid.
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
  /// Indexes `trace` into an internally-owned arena. The index never
  /// dereferences the trace after construction. Does not validate:
  /// policies accept the same traces they always did; call
  /// trace.validate() for strict checking.
  explicit TraceIndex(const UserTrace& trace);

  TraceIndex(TraceIndex&&) = default;
  TraceIndex& operator=(TraceIndex&&) = default;

  TimeMs horizon() const { return horizon_; }
  int num_days() const { return columns_.num_days; }
  UserId user() const { return columns_.user; }

  /// Columnar views into the arena — the replay read path.
  const mem::SessionColumns& sessions() const { return columns_.sessions; }
  const mem::ActivityColumns& activities() const {
    return columns_.activities;
  }
  const mem::UsageColumns& usages() const { return columns_.usages; }

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

  /// Bytes of arena memory backing this index's columns (0 once moved
  /// from).
  std::size_t arena_bytes() const {
    return arena_ ? arena_->bytes_reserved() : 0;
  }

  /// Throws netmaster::Error when an internal invariant is broken
  /// (columns differing from `source`, sessions unsorted/overlapping,
  /// classification inconsistent with the trace). `source` is the trace
  /// the index was built from.
  void check_invariants(const UserTrace& source) const;

 private:
  std::unique_ptr<mem::Arena> arena_;  ///< backs every column below
  TimeMs horizon_ = 0;
  mem::TraceColumns columns_;             ///< SoA trace copy, one arena
  mem::BitSpan deferrable_flags_;         ///< per activity index
  std::span<const std::uint32_t> deferrable_;  ///< ascending indices
};

}  // namespace netmaster::engine
