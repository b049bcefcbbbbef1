// Tests for the event-driven online simulator, including the
// cross-validation against the plan-based policy path.
#include <gtest/gtest.h>

#include <vector>

#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "service/online_sim.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::service {
namespace {

struct Traces {
  UserTrace training;
  UserTrace eval;
};

Traces make_traces(synth::Archetype kind = synth::Archetype::kStudent,
                   std::uint64_t seed = 42) {
  const auto profile = synth::make_user(kind, 2);
  const UserTrace full = synth::generate_trace(profile, 21, seed);
  return {full.slice_days(0, 14), full.slice_days(14, 7)};
}

TEST(OnlineSim, ExecutesEveryActivityOnce) {
  const Traces tr = make_traces();
  const OnlineSimResult r =
      run_online(tr.training, tr.eval, policy::NetMasterConfig{});
  ASSERT_EQ(r.outcome.transfers.size(), tr.eval.activities.size());
  std::vector<bool> seen(tr.eval.activities.size(), false);
  for (const sim::ExecutedTransfer& t : r.outcome.transfers) {
    EXPECT_FALSE(seen[t.activity_index]);
    seen[t.activity_index] = true;
  }
  EXPECT_GT(r.events_processed, tr.eval.activities.size());
  EXPECT_GT(r.radio_switches, 0u);
}

TEST(OnlineSim, AccountsCleanly) {
  const Traces tr = make_traces();
  const OnlineSimResult r =
      run_online(tr.training, tr.eval, policy::NetMasterConfig{});
  EXPECT_NO_THROW(
      sim::account(tr.eval, r.outcome, RadioPowerParams::wcdma()));
}

TEST(OnlineSim, SavesLikeThePolicyPath) {
  // The executive cross-check: the online event loop (greedy
  // nearest-opportunity releases) should land in the same savings
  // regime as the plan-based NetMasterPolicy.
  const Traces tr = make_traces();
  const RadioPowerParams radio = RadioPowerParams::wcdma();
  const sim::SimReport base =
      sim::account(tr.eval, policy::BaselinePolicy().run(tr.eval), radio);

  const OnlineSimResult online =
      run_online(tr.training, tr.eval, policy::NetMasterConfig{});
  const sim::SimReport online_rep =
      sim::account(tr.eval, online.outcome, radio);

  const policy::NetMasterPolicy planned(tr.training,
                                        policy::NetMasterConfig{});
  const sim::SimReport planned_rep =
      sim::account(tr.eval, planned.run(tr.eval), radio);

  // Both save substantially...
  EXPECT_LT(online_rep.energy_j, 0.65 * base.energy_j);
  // ...and agree within a modest band (the planned path may win thanks
  // to prefetching and knapsack placement).
  EXPECT_NEAR(online_rep.energy_j, planned_rep.energy_j,
              0.25 * base.energy_j);
}

TEST(OnlineSim, InterruptsMatchPolicyPath) {
  // The wrong-decision rule is identical in both paths, so the counts
  // must agree exactly.
  for (std::uint64_t seed : {42ull, 7ull, 99ull}) {
    const Traces tr = make_traces(synth::Archetype::kStudent, seed);
    const OnlineSimResult online =
        run_online(tr.training, tr.eval, policy::NetMasterConfig{});
    const policy::NetMasterPolicy planned(tr.training,
                                          policy::NetMasterConfig{});
    EXPECT_EQ(online.outcome.interrupts,
              planned.run(tr.eval).interrupts)
        << "seed " << seed;
  }
}

TEST(OnlineSim, CausalityNeverViolated) {
  // Unlike the plan-based path (whose prefetch is an explicitly
  // sanctioned acausality), the online loop may never execute a
  // transfer before its arrival, nor let one run past the horizon.
  std::vector<Traces> inputs = {make_traces()};
  // A deferrable screen-off transfer arriving 200 ms before the
  // horizon: too late for a deferred copy (at least 500 ms), so it
  // must run in place.
  Traces& edge = inputs.emplace_back();
  edge.training.user = 1;
  edge.training.num_days = 7;
  edge.training.app_names = {"a"};
  edge.eval = edge.training;
  NetworkActivity late;
  late.app = 0;
  late.start = edge.eval.trace_end() - 200;
  late.duration = 100;
  late.bytes_down = 50;
  late.deferrable = true;
  edge.eval.activities.push_back(late);

  for (const Traces& tr : inputs) {
    const OnlineSimResult r =
        run_online(tr.training, tr.eval, policy::NetMasterConfig{});
    ASSERT_EQ(r.outcome.transfers.size(), tr.eval.activities.size());
    for (const sim::ExecutedTransfer& t : r.outcome.transfers) {
      EXPECT_GE(t.start, tr.eval.activities[t.activity_index].start);
      EXPECT_LE(t.start + t.duration, tr.eval.trace_end());
    }
  }
}

TEST(OnlineSim, ScreenOnReleasesPending) {
  // Hand-built: one background arrival shortly before a session; it
  // must release exactly at the session begin.
  UserTrace training;
  training.user = 1;
  training.num_days = 7;
  training.app_names = {"a"};
  for (int day = 0; day < 7; ++day) {
    const TimeMs at = hour_start(day, 12);
    training.sessions.push_back({at, at + 60'000});
    training.usages.push_back({0, at, 5000});
  }
  UserTrace eval = training;
  NetworkActivity bg;
  bg.app = 0;
  bg.start = hour_start(0, 12) - 10 * kMsPerMinute;
  bg.duration = 4000;
  bg.bytes_down = 100;
  bg.deferrable = true;
  eval.activities.insert(eval.activities.begin(), bg);

  policy::NetMasterConfig cfg;
  cfg.enable_duty = false;  // isolate the screen-on release path
  const OnlineSimResult r = run_online(training, eval, cfg);
  bool found = false;
  for (const sim::ExecutedTransfer& t : r.outcome.transfers) {
    if (eval.activities[t.activity_index].deferrable) {
      EXPECT_EQ(t.start, hour_start(0, 12));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(OnlineSim, DutyWakeReleasesUnpredicted) {
  // No sessions at all: pending transfers must ride duty probes.
  UserTrace training;
  training.user = 1;
  training.num_days = 7;
  training.app_names = {"a"};
  UserTrace eval = training;
  NetworkActivity bg;
  bg.app = 0;
  bg.start = hours(3);
  bg.duration = 2000;
  bg.bytes_down = 50;
  bg.deferrable = true;
  eval.activities.push_back(bg);

  const OnlineSimResult r =
      run_online(training, eval, policy::NetMasterConfig{});
  ASSERT_EQ(r.outcome.transfers.size(), 1u);
  EXPECT_GT(r.outcome.transfers[0].start, bg.start);
  EXPECT_EQ(r.outcome.duty_releases, 1u);
  EXPECT_FALSE(r.outcome.wakes.empty());
}

TEST(OnlineSim, DeterministicAcrossRuns) {
  const Traces tr = make_traces();
  const OnlineSimResult a =
      run_online(tr.training, tr.eval, policy::NetMasterConfig{});
  const OnlineSimResult b =
      run_online(tr.training, tr.eval, policy::NetMasterConfig{});
  ASSERT_EQ(a.outcome.transfers.size(), b.outcome.transfers.size());
  for (std::size_t i = 0; i < a.outcome.transfers.size(); ++i) {
    EXPECT_EQ(a.outcome.transfers[i].start, b.outcome.transfers[i].start);
  }
  EXPECT_EQ(a.events_processed, b.events_processed);
}

}  // namespace
}  // namespace netmaster::service
