// Tests for the trace data model: invariants, queries, slicing.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace netmaster {
namespace {

UserTrace small_trace() {
  UserTrace t;
  t.user = 1;
  t.num_days = 2;
  t.app_names = {"app0", "app1"};
  t.sessions = {{1000, 5000}, {10'000, 20'000},
                {kMsPerDay + 100, kMsPerDay + 900}};
  t.usages = {{0, 1200, 800}, {1, 11'000, 2000},
              {0, kMsPerDay + 200, 300}};
  t.activities = {
      {0, 1500, 1000, 5000, 500, true, false},
      {1, 7000, 2000, 3000, 300, false, true},
      {1, kMsPerDay + 400, 200, 100, 10, false, true},
  };
  return t;
}

TEST(Trace, ValidTraceValidates) {
  EXPECT_NO_THROW(small_trace().validate());
}

TEST(Trace, ActivityHelpers) {
  const NetworkActivity n{0, 100, 2000, 3000, 1000, false, true};
  EXPECT_EQ(n.end(), 2100);
  EXPECT_EQ(n.total_bytes(), 4000);
  EXPECT_DOUBLE_EQ(n.rate_kbps(), 4.0 / 2.0);
  const NetworkActivity zero{0, 100, 0, 3000, 0, false, true};
  EXPECT_DOUBLE_EQ(zero.rate_kbps(), 0.0);
}

TEST(Trace, ScreenOnAt) {
  const UserTrace t = small_trace();
  EXPECT_FALSE(t.screen_on_at(999));
  EXPECT_TRUE(t.screen_on_at(1000));
  EXPECT_TRUE(t.screen_on_at(4999));
  EXPECT_FALSE(t.screen_on_at(5000));
  EXPECT_TRUE(t.screen_on_at(15'000));
  EXPECT_FALSE(t.screen_on_at(kMsPerDay));
  EXPECT_TRUE(t.screen_on_at(kMsPerDay + 500));
}

TEST(Trace, ScreenOnSetMeasure) {
  const UserTrace t = small_trace();
  EXPECT_EQ(t.screen_on_set().total_length(), 4000 + 10'000 + 800);
}

TEST(Trace, ValidateRejectsZeroDays) {
  UserTrace t = small_trace();
  t.num_days = 0;
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateBoundsDaysByMaxTraceDays) {
  UserTrace t = small_trace();
  t.num_days = kMaxTraceDays;
  EXPECT_EQ(t.first_violation(), nullptr);
  t.num_days = kMaxTraceDays + 1;
  EXPECT_NE(t.first_violation(), nullptr);
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsOverlappingSessions) {
  UserTrace t = small_trace();
  t.sessions = {{0, 100}, {50, 200}};
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsEmptySession) {
  UserTrace t = small_trace();
  t.sessions = {{100, 100}};
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsUnsortedUsages) {
  UserTrace t = small_trace();
  std::swap(t.usages[0], t.usages[1]);
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsUnknownAppId) {
  UserTrace t = small_trace();
  t.usages[0].app = 9;
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsNegativeBytes) {
  UserTrace t = small_trace();
  t.activities[0].bytes_down = -1;
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsActivityBeyondEnd) {
  UserTrace t = small_trace();
  t.activities.push_back(
      {0, 2 * kMsPerDay - 100, 500, 10, 10, false, true});
  EXPECT_THROW(t.validate(), Error);
}

TEST(Trace, ValidateRejectsSessionBeyondEnd) {
  UserTrace t = small_trace();
  t.sessions.push_back({2 * kMsPerDay - 10, 2 * kMsPerDay + 10});
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceSlice, BasicRebasing) {
  const UserTrace t = small_trace();
  const UserTrace day1 = t.slice_days(1, 1);
  EXPECT_EQ(day1.num_days, 1);
  ASSERT_EQ(day1.sessions.size(), 1u);
  EXPECT_EQ(day1.sessions[0].begin, 100);
  ASSERT_EQ(day1.usages.size(), 1u);
  EXPECT_EQ(day1.usages[0].time, 200);
  ASSERT_EQ(day1.activities.size(), 1u);
  EXPECT_EQ(day1.activities[0].start, 400);
  EXPECT_NO_THROW(day1.validate());
}

TEST(TraceSlice, FullSliceIsIdentityModuloNothing) {
  const UserTrace t = small_trace();
  const UserTrace whole = t.slice_days(0, 2);
  EXPECT_EQ(whole.sessions.size(), t.sessions.size());
  EXPECT_EQ(whole.usages.size(), t.usages.size());
  EXPECT_EQ(whole.activities.size(), t.activities.size());
}

TEST(TraceSlice, ClipsSessionStraddlingBoundary) {
  UserTrace t = small_trace();
  t.sessions = {{kMsPerDay - 1000, kMsPerDay + 1000}};
  t.usages.clear();
  t.activities.clear();
  const UserTrace day0 = t.slice_days(0, 1);
  ASSERT_EQ(day0.sessions.size(), 1u);
  EXPECT_EQ(day0.sessions[0].end, kMsPerDay);
  const UserTrace day1 = t.slice_days(1, 1);
  ASSERT_EQ(day1.sessions.size(), 1u);
  EXPECT_EQ(day1.sessions[0].begin, 0);
  EXPECT_EQ(day1.sessions[0].end, 1000);
}

TEST(TraceSlice, ClipsActivityStraddlingBoundary) {
  UserTrace t = small_trace();
  t.sessions.clear();
  t.usages.clear();
  t.activities = {{0, kMsPerDay - 500, 2000, 10, 10, false, true}};
  // The raw trace itself is fine (activity ends within day 1).
  EXPECT_NO_THROW(t.validate());
  const UserTrace day0 = t.slice_days(0, 1);
  ASSERT_EQ(day0.activities.size(), 1u);
  EXPECT_EQ(day0.activities[0].duration, 500);  // clipped
  EXPECT_NO_THROW(day0.validate());
  const UserTrace day1 = t.slice_days(1, 1);
  EXPECT_TRUE(day1.activities.empty());  // starts in day 0
}

TEST(TraceSlice, RejectsOutOfRange) {
  const UserTrace t = small_trace();
  EXPECT_THROW(t.slice_days(-1, 1), Error);
  EXPECT_THROW(t.slice_days(0, 0), Error);
  EXPECT_THROW(t.slice_days(1, 2), Error);
}

}  // namespace
}  // namespace netmaster
