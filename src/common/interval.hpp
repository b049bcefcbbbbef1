// Half-open time intervals [begin, end) and canonical interval sets.
//
// Interval sets are the workhorse of radio accounting: radio-on time is
// the measure of a union of transfer-induced intervals, and the paper's
// penalty term charges overlapping deferral windows only once — i.e. it
// is also a measure of a union.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"

namespace netmaster {

/// A half-open time interval [begin, end). Empty when begin == end.
struct Interval {
  TimeMs begin = 0;
  TimeMs end = 0;

  constexpr DurationMs length() const { return end - begin; }
  constexpr bool empty() const { return begin >= end; }
  constexpr bool contains(TimeMs t) const { return begin <= t && t < end; }

  friend constexpr bool operator==(const Interval&, const Interval&) =
      default;
};

/// Returns the (possibly empty) intersection of two intervals.
constexpr Interval intersect(const Interval& a, const Interval& b) {
  const TimeMs lo = a.begin > b.begin ? a.begin : b.begin;
  const TimeMs hi = a.end < b.end ? a.end : b.end;
  return lo < hi ? Interval{lo, hi} : Interval{lo, lo};
}

/// True when the two intervals share at least one point.
constexpr bool overlaps(const Interval& a, const Interval& b) {
  return a.begin < b.end && b.begin < a.end;
}

/// A set of disjoint, sorted, non-empty half-open intervals. Insertion
/// keeps the canonical form (merging any overlapping or adjacent
/// intervals), so `total_length()` is the exact measure of the union.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Builds a canonical set from arbitrary (unsorted, overlapping)
  /// intervals; empty inputs are dropped. O(n) when `intervals` is
  /// already sorted by begin, O(n log n) otherwise.
  explicit IntervalSet(std::vector<Interval> intervals);

  /// Adds [begin, end), merging with existing intervals as needed.
  /// No-op when the interval is empty. O(log n) to locate the position
  /// plus the vector shift: O(1) when appending past the last interval,
  /// O(n) for an insert or merge before it. Bulk callers build a set and
  /// union once (add(const IntervalSet&)) instead of adding in a loop.
  void add(TimeMs begin, TimeMs end);
  void add(const Interval& iv) { add(iv.begin, iv.end); }

  /// Union with another set: one linear merge, O(n + m), or an O(m)
  /// append when `other` lies wholly past this set. Coalesces touching
  /// and overlapping neighbours exactly as adding each of `other`'s
  /// intervals in turn would (the canonical form of a union is unique).
  void add(const IntervalSet& other);

  /// Intersection of this set with the clip window [begin, end).
  IntervalSet clipped(TimeMs begin, TimeMs end) const;

  /// Total measure of the union, in ms.
  DurationMs total_length() const;

  /// Measure of the intersection of this set with [begin, end).
  DurationMs overlap_length(TimeMs begin, TimeMs end) const;

  /// True when t is covered by some interval.
  bool contains(TimeMs t) const;

  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Complement of this set within the clip window [begin, end).
  IntervalSet complement(TimeMs begin, TimeMs end) const;

 private:
  std::vector<Interval> intervals_;  // sorted, disjoint, non-empty
};

}  // namespace netmaster
