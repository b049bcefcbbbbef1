// Bitwise equality of two mined habit models, shared by the suites
// that pin one mining path to another (batch vs incremental, direct vs
// sanitize -> index).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "common/time.hpp"
#include "mining/habits.hpp"

namespace netmaster {

inline void expect_models_bitwise_equal(const mining::HabitModel& a,
                                        const mining::HabitModel& b,
                                        const std::string& context) {
  for (const mining::DayKind kind :
       {mining::DayKind::kWeekday, mining::DayKind::kWeekend}) {
    const mining::HourStats& sa = a.stats(kind);
    const mining::HourStats& sb = b.stats(kind);
    ASSERT_EQ(sa.days_observed, sb.days_observed) << context;
    for (int h = 0; h < kHoursPerDay; ++h) {
      // EQ, not NEAR: the paths must perform the same additions in the
      // same order and the same final division.
      ASSERT_EQ(sa.pr_active[h], sb.pr_active[h]) << context << " h" << h;
      ASSERT_EQ(sa.pr_net[h], sb.pr_net[h]) << context << " h" << h;
      ASSERT_EQ(sa.mean_intensity[h], sb.mean_intensity[h])
          << context << " h" << h;
      ASSERT_EQ(sa.mean_net_count[h], sb.mean_net_count[h])
          << context << " h" << h;
      ASSERT_EQ(sa.mean_net_bytes[h], sb.mean_net_bytes[h])
          << context << " h" << h;
      ASSERT_EQ(sa.confidence[h], sb.confidence[h]) << context << " h" << h;
    }
  }
  ASSERT_EQ(a.data_quality(), b.data_quality()) << context;
  ASSERT_EQ(a.overall_confidence(), b.overall_confidence()) << context;
}

}  // namespace netmaster
