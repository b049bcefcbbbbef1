#include "common/interval.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace netmaster {

namespace {

/// Merges two lists sorted by begin into `out`, coalescing overlapping
/// and touching intervals into the last one written: canonical inputs
/// give a canonical output. `out` overlaps neither input, or trails the
/// unread part of `a` by at least the length of `b`. Returns past the
/// last interval written.
Interval* merge_coalesced(std::span<const Interval> a,
                          std::span<const Interval> b, Interval* out) {
  Interval* o = out;
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() || y != b.end()) {
    const Interval iv =
        (y == b.end() || (x != a.end() && x->begin <= y->begin)) ? *x++ : *y++;
    if (o != out && iv.begin <= o[-1].end) {
      o[-1].end = std::max(o[-1].end, iv.end);
    } else {
      *o++ = iv;
    }
  }
  return o;
}

/// Sorts non-empty intervals that arrive as a few ascending runs of
/// begins (a policy's releases append in time order): each natural run
/// is coalesced in place, then the runs are merged pairwise, bottom up,
/// coalescing as they go. O(n log r) for r runs.
void merge_runs(std::vector<Interval>& v) {
  thread_local std::vector<std::size_t> bounds;  // run starts, then the end
  thread_local std::vector<Interval> scratch;
  bounds.assign(1, 0);
  std::size_t out = 0;
  for (const Interval& iv : v) {
    if (out > 0 && iv.begin >= v[out - 1].begin &&
        iv.begin <= v[out - 1].end) {
      v[out - 1].end = std::max(v[out - 1].end, iv.end);
    } else {
      if (out > 0 && iv.begin < v[out - 1].begin) bounds.push_back(out);
      v[out++] = iv;
    }
  }
  v.resize(out);
  bounds.push_back(out);
  if (bounds.size() == 2) return;  // one run: already sorted
  scratch.resize(v.size());
  while (bounds.size() > 2) {
    std::size_t written = 0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k + 1 < bounds.size(); k += 2) {
      const Interval* run = v.data() + bounds[k];
      const Interval* mid = v.data() + bounds[k + 1];
      const Interval* end =
          k + 2 < bounds.size() ? v.data() + bounds[k + 2] : mid;
      bounds[kept++] = written;
      written = static_cast<std::size_t>(
          merge_coalesced({run, mid}, {mid, end}, scratch.data() + written) -
          scratch.data());
    }
    bounds[kept++] = written;
    bounds.resize(kept);
    v.swap(scratch);
  }
  v.resize(bounds.back());
}

}  // namespace

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  // One pass drops the empties and coalesces every arrival that begins
  // at or after the last run interval's begin into a canonical run at
  // the front of the input's storage; only the out-of-order arrivals
  // move aside. A sorted input ends here.
  thread_local std::vector<Interval> late;
  late.clear();
  std::size_t run = 0;
  for (const Interval& iv : intervals) {
    if (iv.empty()) continue;
    if (run == 0 || iv.begin > intervals[run - 1].end) {
      intervals[run++] = iv;
    } else if (iv.begin >= intervals[run - 1].begin) {
      intervals[run - 1].end = std::max(intervals[run - 1].end, iv.end);
    } else {
      late.push_back(iv);
    }
  }
  if (!late.empty()) {
    merge_runs(late);
    // Park the run at the tail, then merge it with the sorted arrivals
    // into the front. The write cursor never passes the run's
    // read cursor: run + late fit in the input's size.
    Interval* const data = intervals.data();
    Interval* const a = std::move_backward(data, data + run,
                                           data + intervals.size());
    run = static_cast<std::size_t>(
        merge_coalesced({a, data + intervals.size()}, late, data) - data);
  }
  intervals.resize(run);
  intervals_ = std::move(intervals);
}

void IntervalSet::add(TimeMs begin, TimeMs end) {
  if (begin >= end) return;

  // The tail, as the constructor's run does it: past the last interval
  // appends, from its begin on extends it. Only an add that reaches
  // further back searches.
  if (intervals_.empty() || begin > intervals_.back().end) {
    intervals_.push_back(Interval{begin, end});
    return;
  }
  if (begin >= intervals_.back().begin) {
    intervals_.back().end = std::max(intervals_.back().end, end);
    return;
  }

  // Find the first existing interval whose end reaches begin (candidates
  // for merging) and the first whose begin exceeds end.
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, TimeMs b) { return iv.end < b; });
  auto last = std::upper_bound(
      first, intervals_.end(), end,
      [](TimeMs e, const Interval& iv) { return e < iv.begin; });

  if (first == last) {
    intervals_.insert(first, Interval{begin, end});
    return;
  }
  // Merge [first, last) with the new interval in place.
  first->begin = std::min(first->begin, begin);
  first->end = std::max(std::prev(last)->end, end);
  intervals_.erase(std::next(first), last);
}

void IntervalSet::add(const IntervalSet& other) {
  if (&other == this || other.empty()) return;
  if (empty() || intervals_.back().end < other.intervals_.front().begin) {
    // Wholly past this set (the per-day builders): append in place.
    intervals_.insert(intervals_.end(), other.intervals_.begin(),
                      other.intervals_.end());
    return;
  }
  // Both inputs are sorted by begin: walk them in begin order and
  // coalesce into the output's last interval, exactly the constructor's
  // canonicalization minus the sort.
  std::vector<Interval> merged(intervals_.size() + other.intervals_.size());
  merged.resize(static_cast<std::size_t>(
      merge_coalesced(intervals_, other.intervals_, merged.data()) -
      merged.data()));
  intervals_ = std::move(merged);
}

DurationMs IntervalSet::total_length() const {
  DurationMs total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

DurationMs IntervalSet::overlap_length(TimeMs begin, TimeMs end) const {
  if (begin >= end) return 0;
  DurationMs total = 0;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, TimeMs b) { return iv.end <= b; });
  for (; it != intervals_.end() && it->begin < end; ++it) {
    total += intersect(*it, Interval{begin, end}).length();
  }
  return total;
}

bool IntervalSet::contains(TimeMs t) const {
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), t,
      [](const Interval& iv, TimeMs v) { return iv.end <= v; });
  return it != intervals_.end() && it->contains(t);
}

IntervalSet IntervalSet::complement(TimeMs begin, TimeMs end) const {
  IntervalSet out;
  if (begin >= end) return out;
  TimeMs cursor = begin;
  for (const Interval& iv : intervals_) {
    if (iv.end <= cursor) continue;
    if (iv.begin >= end) break;
    if (iv.begin > cursor) out.add(cursor, std::min(iv.begin, end));
    cursor = std::max(cursor, iv.end);
    if (cursor >= end) break;
  }
  if (cursor < end) out.add(cursor, end);
  return out;
}

}  // namespace netmaster
