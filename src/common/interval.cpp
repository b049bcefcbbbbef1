#include "common/interval.hpp"

#include <algorithm>
#include <utility>

namespace netmaster {

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
    std::sort(late.begin(), late.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    // Park the run at the tail, then merge it with the sorted arrivals
    // into the front. The write cursor never passes the run's read
    // cursor: run + late fit in the input's size.
    auto a = std::move_backward(
        intervals.begin(),
        intervals.begin() + static_cast<std::ptrdiff_t>(run), intervals.end());
    auto b = late.cbegin();
    std::size_t out = 0;
    while (a != intervals.end() || b != late.cend()) {
      const Interval iv = (b == late.cend() ||
                           (a != intervals.end() && a->begin <= b->begin))
                              ? *a++
                              : *b++;
      if (out > 0 && iv.begin <= intervals[out - 1].end) {
        intervals[out - 1].end = std::max(intervals[out - 1].end, iv.end);
      } else {
        intervals[out++] = iv;
      }
    }
    run = out;
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
  std::vector<Interval> merged;
  merged.reserve(intervals_.size() + other.intervals_.size());
  auto a = intervals_.cbegin();
  auto b = other.intervals_.cbegin();
  const auto a_end = intervals_.cend();
  const auto b_end = other.intervals_.cend();
  while (a != a_end || b != b_end) {
    const Interval& iv =
        (b == b_end || (a != a_end && a->begin <= b->begin)) ? *a++ : *b++;
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
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
