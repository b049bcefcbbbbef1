// Tests for the policy layer helpers and the fixed-interval baselines
// (delay, batch, delay&batch).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "policy/baseline.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "policy/delay_batch.hpp"
#include "policy/policy.hpp"

namespace netmaster::policy {
namespace {

/// One day; a session at [100 s, 160 s); screen-off deferrable
/// activities at 10 s, 20 s and 200 s; one user-initiated transfer
/// inside the session.
UserTrace fixture() {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.sessions = {{seconds(100), seconds(160)}};
  t.usages = {{0, seconds(110), seconds(5)}};
  auto bg = [](TimeMs start) {
    NetworkActivity n;
    n.app = 0;
    n.start = start;
    n.duration = seconds(4);
    n.bytes_down = 1000;
    n.deferrable = true;
    return n;
  };
  NetworkActivity fg;
  fg.app = 0;
  fg.start = seconds(110);
  fg.duration = seconds(2);
  fg.bytes_down = 5000;
  fg.user_initiated = true;

  t.activities = {bg(seconds(10)), bg(seconds(20)), fg,
                  bg(seconds(200))};
  return t;
}

TimeMs start_of(const sim::PolicyOutcome& o, std::size_t activity) {
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    if (tr.activity_index == activity) return tr.start;
  }
  ADD_FAILURE() << "activity " << activity << " not executed";
  return -1;
}

TEST(Helpers, IsDeferrableScreenOff) {
  const UserTrace t = fixture();
  EXPECT_TRUE(is_deferrable_screen_off(t, t.activities[0]));
  EXPECT_FALSE(is_deferrable_screen_off(t, t.activities[2]));  // fg
  NetworkActivity in_session = t.activities[0];
  in_session.start = seconds(120);
  EXPECT_FALSE(is_deferrable_screen_off(t, in_session));
}

TEST(Helpers, DeferredRelease) {
  // deferred_release(want, start, dur, horizon).
  EXPECT_EQ(deferred_release(500, 200, 100, 1000), 500);
  EXPECT_EQ(deferred_release(100, 200, 100, 1000), 200);   // not before
  EXPECT_EQ(deferred_release(5000, 200, 100, 1000), 900);  // fits horizon
  // No room after the arrival: the activity runs in place.
  EXPECT_EQ(deferred_release(0, 950, 100, 1000), 950);
  EXPECT_THROW(deferred_release(0, 0, -1, 1000), Error);
}

TEST(Helpers, PlacedRelease) {
  // placed_release(want, dur, horizon): may precede the arrival, never
  // the epoch, and the copy ends by the horizon.
  EXPECT_EQ(placed_release(500, 100, 1000), 500);
  EXPECT_EQ(placed_release(-50, 100, 1000), 0);
  EXPECT_EQ(placed_release(5000, 100, 1000), 900);
  EXPECT_EQ(placed_release(700, 1000, 1000), 0);
  // A copy longer than the horizon violates the stated precondition:
  // a typed error, not inverted std::clamp bounds.
  EXPECT_THROW(placed_release(0, 1001, 1000), Error);
  EXPECT_THROW(placed_release(0, 500, 0), Error);
  EXPECT_THROW(placed_release(0, -1, 1000), Error);
}

TEST(Helpers, DeferredReleaseEdges) {
  // A copy longer than the whole horizon can never move: in place.
  EXPECT_EQ(deferred_release(0, 0, 2000, 1000), 0);
  EXPECT_EQ(deferred_release(0, 0, 1001, 1000), 0);
  // An arrival past the horizon stays where it is, even for zero work.
  EXPECT_EQ(deferred_release(0, 1001, 0, 1000), 1001);
  // Exactly at the boundary still fits (half-open horizon arithmetic).
  EXPECT_EQ(deferred_release(1500, 1000, 0, 1000), 1000);
  EXPECT_EQ(deferred_release(0, 0, 1000, 1000), 0);
  // Zero-duration activities clamp into [start, horizon].
  EXPECT_EQ(deferred_release(500, 200, 0, 1000), 500);
  EXPECT_EQ(deferred_release(2000, 200, 0, 1000), 1000);
  EXPECT_EQ(deferred_release(-50, 200, 0, 1000), 200);
}

TEST(Helpers, ArrivalInLastHalfSecondRunsInPlace) {
  // A deferred copy runs for at least 500 ms (deferred_duration's
  // floor), so a valid screen-off arrival 200 ms before the horizon
  // leaves no room to defer it. Every fixed-interval baseline must run
  // it in place instead of rejecting the trace.
  UserTrace t = fixture();
  NetworkActivity late = t.activities.back();
  late.start = t.trace_end() - 200;
  late.duration = 100;
  t.activities.push_back(late);
  ASSERT_EQ(t.first_violation(), nullptr);
  const std::size_t late_index = t.activities.size() - 1;
  const DelayPolicy delay(seconds(10));
  const BatchPolicy batch(2);
  const DelayBatchPolicy delay_batch(seconds(10));
  for (const Policy* policy :
       std::initializer_list<const Policy*>{&delay, &batch, &delay_batch}) {
    sim::PolicyOutcome o;
    ASSERT_NO_THROW(o = policy->run(t)) << policy->name();
    bool found = false;
    for (const sim::ExecutedTransfer& tr : o.transfers) {
      if (tr.activity_index != late_index) continue;
      found = true;
      EXPECT_EQ(tr.start, late.start) << policy->name();
      EXPECT_EQ(tr.duration, late.duration) << policy->name();
    }
    EXPECT_TRUE(found) << policy->name();
  }
}

TEST(Helpers, DeferredDuration) {
  EXPECT_EQ(deferred_duration(6000),
            static_cast<DurationMs>(6000 / kDchSpeedup));
  EXPECT_EQ(deferred_duration(100), 500);  // floor
  EXPECT_EQ(deferred_duration(0), 500);
  EXPECT_THROW(deferred_duration(-1), Error);
}

TEST(Baseline, ExecutesEverythingInPlace) {
  const UserTrace t = fixture();
  const sim::PolicyOutcome o = BaselinePolicy().run(t);
  ASSERT_EQ(o.transfers.size(), t.activities.size());
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    EXPECT_EQ(tr.start, t.activities[tr.activity_index].start);
    EXPECT_EQ(tr.duration, t.activities[tr.activity_index].duration);
  }
  EXPECT_TRUE(o.blocked.empty());
  EXPECT_EQ(o.interrupts, 0u);
  EXPECT_FALSE(o.radio_allowed.has_value());
}

TEST(Delay, QuantizesToWindowEnd) {
  const UserTrace t = fixture();
  const DelayPolicy policy(seconds(30));
  const sim::PolicyOutcome o = policy.run(t);
  EXPECT_EQ(start_of(o, 0), seconds(30));  // 10 s -> window end 30 s
  EXPECT_EQ(start_of(o, 1), seconds(30));  // 20 s -> same window
  EXPECT_EQ(start_of(o, 2), seconds(110));  // fg untouched
  EXPECT_EQ(start_of(o, 3), seconds(210));
  // Blocked windows cover the deferrals.
  EXPECT_TRUE(o.blocked.contains(seconds(15)));
  EXPECT_TRUE(o.blocked.contains(seconds(205)));
  EXPECT_FALSE(o.blocked.contains(seconds(110)));
  EXPECT_EQ(o.deferral_latency_s.size(), 3u);
}

TEST(Delay, DeferredTransfersSpeedUp) {
  const UserTrace t = fixture();
  const sim::PolicyOutcome o = DelayPolicy(seconds(30)).run(t);
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    const NetworkActivity& act = t.activities[tr.activity_index];
    if (tr.start > act.start) {
      EXPECT_EQ(tr.duration, deferred_duration(act.duration));
    } else {
      EXPECT_EQ(tr.duration, act.duration);
    }
  }
}

TEST(Delay, NameAndValidation) {
  EXPECT_EQ(DelayPolicy(seconds(60)).name(), "delay(60s)");
  EXPECT_THROW(DelayPolicy(0), Error);
  EXPECT_THROW(DelayPolicy(-5), Error);
}

TEST(Batch, FlushesAtCount) {
  const UserTrace t = fixture();
  const BatchPolicy policy(2);
  const sim::PolicyOutcome o = policy.run(t);
  // Activities 0 and 1 flush together when the 2nd arrives (at 20 s).
  EXPECT_EQ(start_of(o, 0), seconds(20));
  EXPECT_EQ(start_of(o, 1), seconds(20));
}

TEST(Batch, FlushesAtHorizonWhenQueueUnderfull) {
  const UserTrace t = fixture();
  const BatchPolicy policy(5);
  const sim::PolicyOutcome o = policy.run(t);
  // The three bg activities never reach 5: 10 s/20 s flush at the
  // screen-on edge (100 s); 200 s flushes at the horizon.
  EXPECT_EQ(start_of(o, 0), seconds(100));
  EXPECT_EQ(start_of(o, 1), seconds(100));
  const TimeMs horizon = t.trace_end();
  EXPECT_EQ(start_of(o, 3),
            horizon - deferred_duration(t.activities[3].duration));
}

TEST(Batch, SizeOneIsBaselineForBackground) {
  const UserTrace t = fixture();
  const sim::PolicyOutcome o = BatchPolicy(1).run(t);
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    EXPECT_EQ(tr.start, t.activities[tr.activity_index].start);
  }
  EXPECT_EQ(BatchPolicy(3).name(), "batch(3)");
}

TEST(DelayBatch, FlushesAtOldestDeadlineOrScreenOn) {
  const UserTrace t = fixture();
  const DelayBatchPolicy policy(seconds(30));
  const sim::PolicyOutcome o = policy.run(t);
  // Oldest (10 s) deadline 40 s: both queued activities release there.
  EXPECT_EQ(start_of(o, 0), seconds(40));
  EXPECT_EQ(start_of(o, 1), seconds(40));
  // The 200 s activity's deadline (230 s) precedes the horizon.
  EXPECT_EQ(start_of(o, 3), seconds(230));
  EXPECT_EQ(policy.name(), "delay&batch(30s)");
  EXPECT_THROW(DelayBatchPolicy(0), Error);
}

TEST(DelayBatch, ScreenOnPreemptsDeadline) {
  UserTrace t = fixture();
  // Move the background activity to 95 s: its 30 s deadline (125 s) is
  // after the session start (100 s), so the screen-on edge flushes it.
  t.activities[0].start = seconds(95);
  std::sort(t.activities.begin(), t.activities.end(),
            [](const NetworkActivity& a, const NetworkActivity& b) {
              return a.start < b.start;
            });
  const sim::PolicyOutcome o = DelayBatchPolicy(seconds(30)).run(t);
  bool found = false;
  for (const sim::ExecutedTransfer& tr : o.transfers) {
    const NetworkActivity& act = t.activities[tr.activity_index];
    if (act.start == seconds(95)) {
      EXPECT_EQ(tr.start, seconds(100));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AllFixedPolicies, ExecuteEveryActivityExactlyOnce) {
  const UserTrace t = fixture();
  const BaselinePolicy baseline;
  const DelayPolicy delay(seconds(20));
  const BatchPolicy batch(3);
  const DelayBatchPolicy db(seconds(20));
  for (const Policy* p :
       std::initializer_list<const Policy*>{&baseline, &delay, &batch,
                                            &db}) {
    const sim::PolicyOutcome o = p->run(t);
    ASSERT_EQ(o.transfers.size(), t.activities.size()) << p->name();
    std::vector<bool> seen(t.activities.size(), false);
    for (const sim::ExecutedTransfer& tr : o.transfers) {
      EXPECT_FALSE(seen[tr.activity_index]) << p->name();
      seen[tr.activity_index] = true;
    }
  }
}

}  // namespace
}  // namespace netmaster::policy
