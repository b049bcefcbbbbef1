// Tests for the clairvoyant oracle policy.
#include <gtest/gtest.h>

#include <utility>

#include "policy/baseline.hpp"
#include "policy/oracle.hpp"
#include "sim/accounting.hpp"

namespace netmaster::policy {
namespace {

UserTrace fixture() {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.sessions = {{seconds(100), seconds(160)},
                {seconds(500), seconds(530)}};
  t.usages = {{0, seconds(110), seconds(5)}};
  auto bg = [](TimeMs start) {
    NetworkActivity n;
    n.app = 0;
    n.start = start;
    n.duration = seconds(6);
    n.bytes_down = 2000;
    n.deferrable = true;
    return n;
  };
  t.activities = {bg(seconds(10)), bg(seconds(300)), bg(seconds(700))};
  return t;
}

TEST(Oracle, PlacesTransfersInsideNearestSession) {
  const UserTrace t = fixture();
  const sim::PolicyOutcome o = OraclePolicy().run(t);
  ASSERT_EQ(o.transfers.size(), 3u);
  const IntervalSet sessions = t.screen_on_set();
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    EXPECT_TRUE(sessions.contains(tr.start))
        << "transfer at " << tr.start;
  }
  EXPECT_EQ(o.interrupts, 0u);
  EXPECT_TRUE(o.blocked.empty());
  ASSERT_TRUE(o.radio_allowed.has_value());
}

TEST(Oracle, PrefersCloserSessionAnchor) {
  const UserTrace t = fixture();
  const sim::PolicyOutcome o = OraclePolicy().run(t);
  // Activity at 300 s: distance to session-1 end (160 s) is 140 s,
  // distance to session-2 begin (500 s) is 200 s -> prefetch into
  // session 1.
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    if (tr.activity_index == 1) {
      EXPECT_LT(tr.start, seconds(160));
      EXPECT_GE(tr.start, seconds(100));
    }
    if (tr.activity_index == 2) {
      // After the last session: deferred backward into session 2.
      EXPECT_GE(tr.start, seconds(500));
      EXPECT_LT(tr.start, seconds(530));
    }
  }
}

TEST(Oracle, OutOfOrderArrivalReseeksTheSessionCursor) {
  // TraceIndex does not validate ordering. The 300 s arrival comes
  // after the 700 s one, a step back past a session: the session
  // cursor must re-seek and place it as the sorted trace does
  // (prefetched into session 1), not from the cursor left past the
  // last session.
  const UserTrace sorted = fixture();
  UserTrace stepped = sorted;
  std::swap(stepped.activities[1], stepped.activities[2]);
  const sim::PolicyOutcome want = OraclePolicy().run(sorted);
  const sim::PolicyOutcome got = OraclePolicy().run(stepped);
  ASSERT_EQ(got.transfers.size(), 3u);
  const std::size_t in_sorted[] = {0, 2, 1};
  for (const sim::ExecutedTransfer& tr : got.transfers) {
    const sim::ExecutedTransfer& w =
        want.transfers[in_sorted[tr.activity_index]];
    EXPECT_EQ(tr.start, w.start) << "activity " << tr.activity_index;
    EXPECT_EQ(tr.duration, w.duration) << "activity " << tr.activity_index;
  }
  EXPECT_LT(got.transfers[2].start, seconds(160));
}

TEST(Oracle, RespectsCapacity) {
  UserTrace t = fixture();
  sched::ProfitConfig tight;
  tight.bandwidth_kbps = 0.001;  // ~60 B per 60 s session
  const sim::PolicyOutcome o = OraclePolicy(tight).run(t);
  // Nothing fits: all activities run in place.
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    EXPECT_EQ(tr.start, t.activities[tr.activity_index].start);
  }
}

TEST(Oracle, NoSessionsFallsBackToBaselineSchedule) {
  UserTrace t = fixture();
  t.sessions.clear();
  t.usages.clear();
  const sim::PolicyOutcome o = OraclePolicy().run(t);
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    EXPECT_EQ(tr.start, t.activities[tr.activity_index].start);
  }
}

TEST(Oracle, EnergyNeverAboveBaseline) {
  const UserTrace t = fixture();
  const RadioPowerParams radio = RadioPowerParams::wcdma();
  const sim::SimReport base =
      sim::account(t, BaselinePolicy().run(t), radio);
  const sim::SimReport oracle =
      sim::account(t, OraclePolicy().run(t), radio);
  EXPECT_LT(oracle.energy_j, base.energy_j);
  EXPECT_LT(oracle.radio_on_ms, base.radio_on_ms);
  // Same bytes moved either way.
  EXPECT_EQ(oracle.bytes_down, base.bytes_down);
}

TEST(Oracle, LeavesUserInitiatedAlone) {
  UserTrace t = fixture();
  NetworkActivity fg;
  fg.app = 0;
  fg.start = seconds(110);
  fg.duration = seconds(2);
  fg.bytes_down = 100;
  fg.user_initiated = true;
  t.activities.insert(t.activities.begin() + 1, fg);
  std::sort(t.activities.begin(), t.activities.end(),
            [](const NetworkActivity& a, const NetworkActivity& b) {
              return a.start < b.start;
            });
  const sim::PolicyOutcome o = OraclePolicy().run(t);
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    if (t.activities[tr.activity_index].user_initiated) {
      EXPECT_EQ(tr.start, t.activities[tr.activity_index].start);
      EXPECT_EQ(tr.duration, t.activities[tr.activity_index].duration);
    }
  }
}

}  // namespace
}  // namespace netmaster::policy
