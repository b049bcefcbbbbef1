#include "common/interval.hpp"

#include <algorithm>

namespace netmaster {

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  const auto by_begin = [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  };
  if (!std::is_sorted(intervals.begin(), intervals.end(), by_begin)) {
    std::sort(intervals.begin(), intervals.end(), by_begin);
  }
  for (const Interval& iv : intervals) {
    if (!intervals_.empty() && iv.begin <= intervals_.back().end) {
      intervals_.back().end = std::max(intervals_.back().end, iv.end);
    } else {
      intervals_.push_back(iv);
    }
  }
}

void IntervalSet::add(TimeMs begin, TimeMs end) {
  if (begin >= end) return;

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

IntervalSet IntervalSet::clipped(TimeMs begin, TimeMs end) const {
  IntervalSet out;
  if (begin >= end) return out;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, TimeMs b) { return iv.end <= b; });
  for (; it != intervals_.end() && it->begin < end; ++it) {
    out.intervals_.push_back(intersect(*it, Interval{begin, end}));
  }
  return out;
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
