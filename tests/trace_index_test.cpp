// Tests for engine::TraceIndex: structural invariants, session lookups
// against the linear-scan ground truth, and the bit-identity of policy
// outcomes between the shared-index path and the one-shot UserTrace
// path. (The hour buckets habit mining reads are mining::fold_buckets',
// tested in mining_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "policy/baseline.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "policy/delay_batch.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"
#include "service/online_sim.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::engine {
namespace {

/// Two sessions, activities on both sides of every boundary.
UserTrace fixture() {
  UserTrace t;
  t.user = 7;
  t.num_days = 1;
  t.app_names = {"a", "b"};
  t.sessions = {{seconds(100), seconds(160)}, {seconds(300), seconds(400)}};
  t.usages = {{0, seconds(110), seconds(5)},
              {1, seconds(310), seconds(5)}};
  auto act = [](int app, TimeMs start, bool deferrable) {
    NetworkActivity n;
    n.app = static_cast<AppId>(app);
    n.start = start;
    n.duration = seconds(4);
    n.bytes_down = 1000;
    n.deferrable = deferrable;
    n.user_initiated = !deferrable;
    return n;
  };
  t.activities = {act(0, seconds(10), true),    // screen off, deferrable
                  act(0, seconds(100), true),   // session edge: screen on
                  act(1, seconds(120), false),  // foreground
                  act(0, seconds(160), true),   // end edge: screen off
                  act(1, seconds(350), true),   // inside 2nd session
                  act(0, seconds(500), true)};  // tail, screen off
  return t;
}

TEST(TraceIndex, InvariantsHoldOnFixtureAndSynthTraces) {
  const UserTrace t = fixture();
  TraceIndex(t).check_invariants(t);
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (int arch = 0; arch < 3; ++arch) {
      const UserTrace synth_trace = synth::generate_trace(
          synth::make_user(static_cast<synth::Archetype>(arch), 1), 7,
          seed);
      TraceIndex(synth_trace).check_invariants(synth_trace);
    }
  }
}

TEST(TraceIndex, SessionLookupsMatchLinearScan) {
  const UserTrace t = fixture();
  const TraceIndex index(t);
  EXPECT_EQ(index.horizon(), t.trace_end());
  for (TimeMs probe :
       {TimeMs{0}, seconds(99), seconds(100), seconds(159), seconds(160),
        seconds(299), seconds(300), seconds(399), seconds(400),
        seconds(500)}) {
    EXPECT_EQ(index.screen_on_at(probe), t.screen_on_at(probe)) << probe;
  }
  EXPECT_EQ(index.first_session_at_or_after(0), 0u);
  EXPECT_EQ(index.first_session_at_or_after(seconds(100)), 0u);
  EXPECT_EQ(index.first_session_at_or_after(seconds(101)), 1u);
  EXPECT_EQ(index.first_session_at_or_after(seconds(300)), 1u);
  EXPECT_EQ(index.first_session_at_or_after(seconds(301)),
            index.sessions().size());

  EXPECT_EQ(index.next_session_begin(0, -1), seconds(100));
  EXPECT_EQ(index.next_session_begin(seconds(200), -1), seconds(300));
  EXPECT_EQ(index.next_session_begin(seconds(301), seconds(999)),
            seconds(999));

  EXPECT_EQ(index.last_session_begin_in(0, seconds(500)), seconds(300));
  EXPECT_EQ(index.last_session_begin_in(0, seconds(300)), seconds(100));
  EXPECT_EQ(index.last_session_begin_in(0, seconds(100)), -1);
  EXPECT_EQ(index.last_session_begin_in(seconds(150), seconds(250)), -1);
}

TEST(TraceIndex, ClassifiesEveryActivityExactlyOnce) {
  const UserTrace t = fixture();
  const TraceIndex index(t);
  // Ground truth via the policy-layer helper.
  std::size_t deferrable_count = 0;
  for (std::size_t i = 0; i < t.activities.size(); ++i) {
    EXPECT_EQ(index.is_deferrable_screen_off(i),
              policy::is_deferrable_screen_off(t, t.activities[i]))
        << "activity " << i;
    if (index.is_deferrable_screen_off(i)) ++deferrable_count;
  }
  // The ascending list is exactly the set of flagged indices.
  const std::span<const std::uint32_t> listed =
      index.deferrable_screen_off();
  ASSERT_EQ(listed.size(), deferrable_count);
  for (std::size_t k = 0; k < listed.size(); ++k) {
    EXPECT_TRUE(index.is_deferrable_screen_off(listed[k]));
    if (k > 0) {
      EXPECT_LT(listed[k - 1], listed[k]);
    }
  }
  // Expected classification: 0, 3, 5 deferrable screen-off; 1 arrives at
  // a session begin (screen on), 2 is foreground, 4 is inside a session.
  EXPECT_EQ(std::vector<std::uint32_t>(listed.begin(), listed.end()),
            (std::vector<std::uint32_t>{0, 3, 5}));
}

TEST(TraceIndex, ClassificationCursorHandlesOutOfOrderStarts) {
  // Activity starts that step backwards (here reversed, then a synth
  // trace shuffled by a stride) force the screen cursor to re-seek;
  // every answer must still equal the canonical predicate.
  UserTrace reversed = fixture();
  std::reverse(reversed.activities.begin(), reversed.activities.end());
  UserTrace strided = synth::generate_trace(
      synth::make_user(synth::Archetype::kHeavyMessenger, 3), 3, 5);
  std::vector<NetworkActivity> shuffled;
  for (std::size_t first = 0; first < 7; ++first) {
    for (std::size_t i = first; i < strided.activities.size(); i += 7) {
      shuffled.push_back(strided.activities[i]);
    }
  }
  strided.activities = std::move(shuffled);

  for (const UserTrace* t : {&reversed, &strided}) {
    const TraceIndex index(*t);
    EXPECT_NO_THROW(index.check_invariants(*t));
    for (std::size_t i = 0; i < t->activities.size(); ++i) {
      ASSERT_EQ(index.is_deferrable_screen_off(i),
                policy::is_deferrable_screen_off(*t, t->activities[i]))
          << "activity " << i;
    }
  }
}

void expect_outcome_eq(const sim::PolicyOutcome& a,
                       const sim::PolicyOutcome& b) {
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].activity_index, b.transfers[i].activity_index);
    EXPECT_EQ(a.transfers[i].start, b.transfers[i].start);
    EXPECT_EQ(a.transfers[i].duration, b.transfers[i].duration);
  }
  EXPECT_EQ(a.blocked.intervals(), b.blocked.intervals());
  ASSERT_EQ(a.wakes.size(), b.wakes.size());
  for (std::size_t i = 0; i < a.wakes.size(); ++i) {
    EXPECT_EQ(a.wakes[i].time, b.wakes[i].time);
    EXPECT_EQ(a.wakes[i].window, b.wakes[i].window);
    EXPECT_EQ(a.wakes[i].productive, b.wakes[i].productive);
  }
  ASSERT_EQ(a.radio_allowed.has_value(), b.radio_allowed.has_value());
  if (a.radio_allowed) {
    EXPECT_EQ(a.radio_allowed->intervals(), b.radio_allowed->intervals());
  }
  EXPECT_EQ(a.interrupts, b.interrupts);
  EXPECT_EQ(a.duty_releases, b.duty_releases);
  EXPECT_EQ(a.deferral_latency_s, b.deferral_latency_s);
}

TEST(TraceIndex, PolicyOutcomesBitIdenticalViaSharedIndex) {
  for (const std::uint64_t seed : {3u, 42u}) {
    const synth::UserProfile profile =
        synth::make_user(synth::Archetype::kCommuter, 1);
    const UserTrace full = synth::generate_trace(profile, 14, seed);
    const UserTrace training = full.slice_days(0, 7);
    const UserTrace eval = full.slice_days(7, 7);
    const TraceIndex index(eval);

    const policy::NetMasterConfig nm_config;
    std::vector<std::unique_ptr<policy::Policy>> policies;
    policies.push_back(std::make_unique<policy::BaselinePolicy>());
    policies.push_back(std::make_unique<policy::DelayPolicy>(seconds(30)));
    policies.push_back(std::make_unique<policy::BatchPolicy>(3));
    policies.push_back(
        std::make_unique<policy::DelayBatchPolicy>(seconds(20)));
    policies.push_back(
        std::make_unique<policy::OraclePolicy>(nm_config.profit));
    policies.push_back(
        std::make_unique<policy::NetMasterPolicy>(training, nm_config));

    for (const auto& p : policies) {
      SCOPED_TRACE(p->name());
      expect_outcome_eq(p->run(eval), p->run(index));
    }

    // The online event loop agrees across the two entry points as well.
    const service::OnlineSimResult online_trace =
        service::run_online(training, eval, nm_config);
    const service::OnlineSimResult online_index =
        service::run_online(training, eval, index, nm_config);
    EXPECT_EQ(online_trace.events_processed, online_index.events_processed);
    EXPECT_EQ(online_trace.radio_switches, online_index.radio_switches);
    expect_outcome_eq(online_trace.outcome, online_index.outcome);
  }
}

TEST(TraceIndex, ReplaysAfterTheSourceTraceIsGone) {
  // The index keeps no reference to its source: a fleet user's trace
  // may be evicted to disk (or destroyed) while the arena-backed
  // columns keep replaying — also after the index itself was moved,
  // which carries its arena along. Under ASan a stray read of the
  // freed trace or of a dropped arena fails here.
  auto source = std::make_unique<UserTrace>(fixture());
  const UserTrace copy = *source;
  TraceIndex built(*source);
  built.check_invariants(copy);
  const std::size_t bytes = built.arena_bytes();
  EXPECT_GT(bytes, 0u);
  source.reset();

  const auto expect_replays = [&copy](const TraceIndex& index) {
    EXPECT_EQ(index.sessions().size(), copy.sessions.size());
    EXPECT_EQ(index.activities().size(), copy.activities.size());
    EXPECT_TRUE(index.screen_on_at(seconds(110)));
    EXPECT_EQ(index.deferrable_screen_off().size(), 3u);
    EXPECT_EQ(index.num_days(), copy.num_days);
    index.check_invariants(copy);
  };
  expect_replays(built);

  const TraceIndex moved(std::move(built));
  EXPECT_EQ(moved.arena_bytes(), bytes);
  expect_replays(moved);
}

}  // namespace
}  // namespace netmaster::engine
