// Unit + property tests for Interval / IntervalSet.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"

namespace netmaster {
namespace {

TEST(Interval, BasicProperties) {
  const Interval iv{10, 20};
  EXPECT_EQ(iv.length(), 10);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
  EXPECT_FALSE(iv.contains(9));
}

TEST(Interval, EmptyInterval) {
  const Interval iv{5, 5};
  EXPECT_TRUE(iv.empty());
  EXPECT_EQ(iv.length(), 0);
  EXPECT_FALSE(iv.contains(5));
}

TEST(Interval, Intersection) {
  EXPECT_EQ(intersect({0, 10}, {5, 15}), (Interval{5, 10}));
  EXPECT_EQ(intersect({0, 10}, {10, 20}).length(), 0);
  EXPECT_TRUE(intersect({0, 5}, {6, 9}).empty());
  EXPECT_EQ(intersect({0, 100}, {20, 30}), (Interval{20, 30}));
}

TEST(Interval, Overlaps) {
  EXPECT_TRUE(overlaps({0, 10}, {9, 20}));
  EXPECT_FALSE(overlaps({0, 10}, {10, 20}));  // half-open: touching only
  EXPECT_TRUE(overlaps({5, 6}, {0, 100}));
}

TEST(IntervalSet, AddMergesOverlapping) {
  IntervalSet set;
  set.add(0, 10);
  set.add(5, 15);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals().front(), (Interval{0, 15}));
  EXPECT_EQ(set.total_length(), 15);
}

TEST(IntervalSet, AddMergesAdjacent) {
  IntervalSet set;
  set.add(0, 10);
  set.add(10, 20);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.total_length(), 20);
}

TEST(IntervalSet, DisjointStaysDisjoint) {
  IntervalSet set;
  set.add(0, 10);
  set.add(20, 30);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.total_length(), 20);
}

TEST(IntervalSet, EmptyAddIsNoop) {
  IntervalSet set;
  set.add(5, 5);
  set.add(7, 3);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_length(), 0);
}

TEST(IntervalSet, OutOfOrderAdds) {
  IntervalSet set;
  set.add(50, 60);
  set.add(0, 10);
  set.add(30, 40);
  set.add(8, 35);  // bridges the first two
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 40}));
  EXPECT_EQ(set.intervals()[1], (Interval{50, 60}));
}

TEST(IntervalSet, ConstructorCanonicalizes) {
  const IntervalSet set({{5, 10}, {0, 6}, {20, 20}, {12, 14}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(set.intervals()[1], (Interval{12, 14}));
}

TEST(IntervalSet, Contains) {
  IntervalSet set;
  set.add(10, 20);
  set.add(30, 40);
  EXPECT_TRUE(set.contains(10));
  EXPECT_TRUE(set.contains(19));
  EXPECT_FALSE(set.contains(20));
  EXPECT_FALSE(set.contains(25));
  EXPECT_TRUE(set.contains(35));
  EXPECT_FALSE(set.contains(40));
}

TEST(IntervalSet, OverlapLength) {
  IntervalSet set;
  set.add(10, 20);
  set.add(30, 40);
  EXPECT_EQ(set.overlap_length(0, 100), 20);
  EXPECT_EQ(set.overlap_length(15, 35), 10);
  EXPECT_EQ(set.overlap_length(20, 30), 0);
  EXPECT_EQ(set.overlap_length(12, 18), 6);
  EXPECT_EQ(set.overlap_length(18, 12), 0);  // inverted window
}

TEST(IntervalSet, UnionWithOtherSet) {
  IntervalSet a;
  a.add(0, 10);
  IntervalSet b;
  b.add(5, 20);
  b.add(30, 40);
  a.add(b);
  EXPECT_EQ(a.total_length(), 30);
  EXPECT_EQ(a.size(), 2u);
}

/// The per-interval reference for a set union.
IntervalSet union_one_by_one(IntervalSet a, const IntervalSet& b) {
  for (const Interval& iv : b.intervals()) a.add(iv);
  return a;
}

IntervalSet set_of(std::vector<Interval> ivs) {
  return IntervalSet(std::move(ivs));
}

TEST(IntervalSet, UnionEdgeCasesMatchOneByOneAdds) {
  const std::vector<std::pair<IntervalSet, IntervalSet>> cases = {
      {set_of({{0, 10}}), set_of({{10, 20}})},            // touching
      {set_of({{10, 20}}), set_of({{0, 10}})},            // touching, left
      {set_of({{0, 100}}), set_of({{10, 20}, {30, 40}})}, // nested in a
      {set_of({{10, 20}, {30, 40}}), set_of({{0, 100}})}, // a nested in b
      {set_of({{5, 9}, {20, 30}}), set_of({{5, 9}, {20, 30}})},  // identical
      {set_of({{0, 10}, {20, 30}}), set_of({{10, 20}})},  // bridges a gap
      {set_of({{0, 5}, {40, 50}}), set_of({{10, 20}, {25, 30}})},  // disjoint
      {set_of({{0, 10}}), set_of({{11, 20}, {30, 40}})},  // wholly past a
      {IntervalSet{}, set_of({{1, 2}, {3, 4}})},          // empty a
      {set_of({{1, 2}, {3, 4}}), IntervalSet{}},          // empty b
      {IntervalSet{}, IntervalSet{}},                     // both empty
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    IntervalSet merged = cases[i].first;
    merged.add(cases[i].second);
    EXPECT_EQ(merged.intervals(),
              union_one_by_one(cases[i].first, cases[i].second).intervals())
        << "case " << i;
  }
}

TEST(IntervalSet, SelfUnionIsIdentity) {
  IntervalSet set = set_of({{0, 10}, {20, 30}, {40, 45}});
  const IntervalSet before = set;
  set.add(set);
  EXPECT_EQ(set.intervals(), before.intervals());
}

TEST(IntervalSet, UnionMatchesOneByOneAddsOnRandomSets) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet a;
    IntervalSet b;
    // Small universe and short intervals: plenty of touching, nested
    // and overlapping neighbours.
    for (int k = 0; k < 12; ++k) {
      const TimeMs lo = rng.uniform_int(0, 200);
      a.add(lo, lo + rng.uniform_int(0, 15));
      const TimeMs lo2 = rng.uniform_int(0, 200);
      b.add(lo2, lo2 + rng.uniform_int(0, 15));
    }
    IntervalSet merged = a;
    merged.add(b);
    ASSERT_EQ(merged.intervals(), union_one_by_one(a, b).intervals())
        << "trial " << trial;
  }
}

TEST(IntervalSet, ClippedIntersectsWithWindow) {
  const IntervalSet set = set_of({{0, 10}, {20, 30}, {40, 50}});
  EXPECT_EQ(set.clipped(5, 45).intervals(),
            (std::vector<Interval>{{5, 10}, {20, 30}, {40, 45}}));
  EXPECT_EQ(set.clipped(10, 20).intervals(), std::vector<Interval>{});
  EXPECT_EQ(set.clipped(-5, 100).intervals(), set.intervals());
  EXPECT_TRUE(set.clipped(30, 25).empty());
}

TEST(IntervalSet, ComplementBasic) {
  IntervalSet set;
  set.add(10, 20);
  set.add(30, 40);
  const IntervalSet comp = set.complement(0, 50);
  ASSERT_EQ(comp.size(), 3u);
  EXPECT_EQ(comp.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(comp.intervals()[1], (Interval{20, 30}));
  EXPECT_EQ(comp.intervals()[2], (Interval{40, 50}));
}

TEST(IntervalSet, ComplementOfEmptyIsWindow) {
  const IntervalSet set;
  const IntervalSet comp = set.complement(5, 15);
  ASSERT_EQ(comp.size(), 1u);
  EXPECT_EQ(comp.intervals().front(), (Interval{5, 15}));
}

TEST(IntervalSet, ComplementClipsToWindow) {
  IntervalSet set;
  set.add(0, 100);
  EXPECT_TRUE(set.complement(20, 80).empty());
  IntervalSet partial;
  partial.add(0, 50);
  const IntervalSet comp = partial.complement(20, 80);
  ASSERT_EQ(comp.size(), 1u);
  EXPECT_EQ(comp.intervals().front(), (Interval{50, 80}));
}

TEST(IntervalSet, ComplementEmptyWindow) {
  IntervalSet set;
  set.add(0, 10);
  EXPECT_TRUE(set.complement(5, 5).empty());
  EXPECT_TRUE(set.complement(10, 5).empty());
}

// Property test: the canonical set must agree with a brute-force
// boolean timeline under random adds.
class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntervalSetProperty, MatchesBruteForceTimeline) {
  Rng rng(GetParam());
  constexpr int kUniverse = 300;
  std::vector<bool> timeline(kUniverse, false);
  IntervalSet set;

  for (int step = 0; step < 60; ++step) {
    const TimeMs a = rng.uniform_int(0, kUniverse - 1);
    const TimeMs b = rng.uniform_int(0, kUniverse - 1);
    const TimeMs lo = std::min(a, b), hi = std::max(a, b);
    set.add(lo, hi);
    for (TimeMs t = lo; t < hi; ++t) timeline[t] = true;
  }

  // Coverage agrees pointwise.
  for (TimeMs t = 0; t < kUniverse; ++t) {
    EXPECT_EQ(set.contains(t), timeline[t]) << "at t=" << t;
  }
  // Total measure agrees.
  DurationMs measure = 0;
  for (bool on : timeline) measure += on ? 1 : 0;
  EXPECT_EQ(set.total_length(), measure);
  // Canonical form: sorted, disjoint, non-empty.
  const auto& ivs = set.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    EXPECT_LT(ivs[i].begin, ivs[i].end);
    if (i > 0) {
      EXPECT_LT(ivs[i - 1].end, ivs[i].begin);
    }
  }
  // Complement partitions the window.
  const IntervalSet comp = set.complement(0, kUniverse);
  EXPECT_EQ(set.total_length() + comp.total_length(), kUniverse);
  for (TimeMs t = 0; t < kUniverse; ++t) {
    EXPECT_NE(set.contains(t), comp.contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalSetProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace netmaster
