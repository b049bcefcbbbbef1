// Tests for the full NetMaster policy: classification, scheduling,
// real-time adjustment, duty fallback, ablations.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "oracles/account_outcome.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::policy {
namespace {

/// 14-day training + 7-day eval from a synthetic volunteer.
struct Traces {
  UserTrace training;
  UserTrace eval;
};

Traces make_traces(std::uint64_t seed = 42) {
  const auto profile = synth::make_user(synth::Archetype::kStudent, 2);
  const UserTrace full = synth::generate_trace(profile, 21, seed);
  return {full.slice_days(0, 14), full.slice_days(14, 7)};
}

TEST(NetMaster, ExecutesEveryActivityOnce) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::PolicyOutcome o = policy.run(tr.eval);
  ASSERT_EQ(o.transfers.size(), tr.eval.activities.size());
  std::vector<bool> seen(tr.eval.activities.size(), false);
  for (const sim::ExecutedTransfer& t : o.transfers) {
    ASSERT_LT(t.activity_index, seen.size());
    EXPECT_FALSE(seen[t.activity_index]);
    seen[t.activity_index] = true;
    EXPECT_GE(t.start, 0);
    EXPECT_LE(t.start + t.duration, tr.eval.trace_end());
  }
}

TEST(NetMaster, EnergyWellBelowBaseline) {
  const Traces tr = make_traces();
  const RadioPowerParams radio = RadioPowerParams::wcdma();
  const sim::SimReport base =
      sim::account(tr.eval, BaselinePolicy().run(tr.eval), radio);
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::SimReport nm =
      sim::account(tr.eval, policy.run(tr.eval), radio);
  EXPECT_LT(nm.energy_j, 0.6 * base.energy_j);
  EXPECT_LT(nm.radio_on_ms, 0.6 * base.radio_on_ms);
  EXPECT_EQ(nm.bytes_down + nm.bytes_up, base.bytes_down + base.bytes_up);
}

TEST(NetMaster, InterruptsStayUnderPaperBound) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::SimReport rep = sim::account(
      tr.eval, policy.run(tr.eval), RadioPowerParams::wcdma());
  EXPECT_LT(rep.affected_fraction, 0.01);  // paper: < 1%
}

TEST(NetMaster, UserInitiatedNeverMoved) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::PolicyOutcome o = policy.run(tr.eval);
  for (const sim::ExecutedTransfer& t : o.transfers) {
    const NetworkActivity& act = tr.eval.activities[t.activity_index];
    if (act.user_initiated) {
      EXPECT_EQ(t.start, act.start);
      EXPECT_EQ(t.duration, act.duration);
    }
  }
}

TEST(NetMaster, DutyWakesOnlyOutsidePredictedSlots) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::PolicyOutcome o = policy.run(tr.eval);
  IntervalSet active;
  for (int day = 0; day < tr.eval.num_days; ++day) {
    active.add(policy.predictor().predict_day(day).active_slots);
  }
  for (const duty::WakeEvent& w : o.wakes) {
    EXPECT_FALSE(active.contains(w.time)) << "wake at " << w.time;
  }
}

/// The accountant's cellular report of a switched outcome equals the
/// materializing reference's, bit for bit.
void expect_switch_matches_reference(const UserTrace& eval,
                                     const sim::PolicyOutcome& o) {
  const RadioSet radios;
  const RadioAccounting got = sim::account(eval, o, radios).radio;
  const RadioAccounting want =
      oracles::account_outcome(sim::trace_totals(eval), eval.usages, o,
                               radios)
          .radio;
  EXPECT_EQ(got.energy_j, want.energy_j);
  EXPECT_EQ(got.radio_on_ms, want.radio_on_ms);
  EXPECT_EQ(got.tail_tier_ms, want.tail_tier_ms);
  EXPECT_EQ(got.promotions, want.promotions);
  EXPECT_GT(got.tail_tier_ms[0], 0);
}

TEST(NetMaster, DrivesTheDataSwitch) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::PolicyOutcome o = policy.run(tr.eval);
  ASSERT_TRUE(o.radio_allowed.has_value());
  // Without slot-powered radio the policy lists no extra windows: the
  // accountant derives the switch from every transfer and its dormancy
  // grace (clamped to the horizon) and every wake probe, and integrates
  // exactly as the reference does under that allowed set.
  EXPECT_TRUE(o.radio_allowed->empty());
  expect_switch_matches_reference(tr.eval, o);
  // Slot-powered radio lists the predicted slots as extra windows.
  NetMasterConfig slot_powered;
  slot_powered.slot_powered_radio = true;
  const NetMasterPolicy powered(tr.training, slot_powered);
  const sim::PolicyOutcome p = powered.run(tr.eval);
  IntervalSet active;
  for (int day = 0; day < tr.eval.num_days; ++day) {
    active.add(powered.predictor().predict_day(day).active_slots);
  }
  ASSERT_TRUE(p.radio_allowed.has_value());
  EXPECT_EQ(p.radio_allowed->intervals(), active.intervals());
  expect_switch_matches_reference(tr.eval, p);
}

TEST(NetMaster, SpecialAppAblationRaisesInterrupts) {
  const Traces tr = make_traces();
  NetMasterConfig with = {};
  NetMasterConfig without = {};
  without.enable_special_apps = false;
  const auto o_with = NetMasterPolicy(tr.training, with).run(tr.eval);
  const auto o_without =
      NetMasterPolicy(tr.training, without).run(tr.eval);
  EXPECT_GT(o_without.interrupts, o_with.interrupts);
}

TEST(NetMaster, NoPredictionRoutesEverythingThroughDuty) {
  const Traces tr = make_traces();
  NetMasterConfig cfg;
  cfg.enable_prediction = false;
  const NetMasterPolicy policy(tr.training, cfg);
  const sim::PolicyOutcome o = policy.run(tr.eval);
  // With no slots, the duty path must serve far more releases.
  NetMasterConfig full;
  const auto o_full = NetMasterPolicy(tr.training, full).run(tr.eval);
  EXPECT_GT(o.duty_releases, o_full.duty_releases);
  EXPECT_GT(o.wakes.size(), o_full.wakes.size());
}

TEST(NetMaster, NoDutyStillExecutesEverything) {
  const Traces tr = make_traces();
  NetMasterConfig cfg;
  cfg.enable_duty = false;
  const NetMasterPolicy policy(tr.training, cfg);
  const sim::PolicyOutcome o = policy.run(tr.eval);
  EXPECT_EQ(o.transfers.size(), tr.eval.activities.size());
  EXPECT_TRUE(o.wakes.empty());
}

TEST(NetMaster, SlotPoweredModeSavesLess) {
  const Traces tr = make_traces();
  const RadioPowerParams radio = RadioPowerParams::wcdma();
  NetMasterConfig powered;
  powered.slot_powered_radio = true;
  const sim::SimReport rep_powered = sim::account(
      tr.eval, NetMasterPolicy(tr.training, powered).run(tr.eval), radio);
  const sim::SimReport rep_full = sim::account(
      tr.eval, NetMasterPolicy(tr.training, {}).run(tr.eval), radio);
  EXPECT_GT(rep_powered.energy_j, rep_full.energy_j);
}

TEST(NetMaster, DeterministicAcrossRuns) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::PolicyOutcome a = policy.run(tr.eval);
  const sim::PolicyOutcome b = policy.run(tr.eval);
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].start, b.transfers[i].start);
    EXPECT_EQ(a.transfers[i].activity_index,
              b.transfers[i].activity_index);
  }
  EXPECT_EQ(a.wakes.size(), b.wakes.size());
  EXPECT_EQ(a.interrupts, b.interrupts);
}

TEST(NetMaster, ArrivalInLastHalfSecondRunsInPlace) {
  // A deferred copy runs for at least 500 ms (deferred_duration's
  // floor), so an arrival 200 ms before the horizon leaves no room to
  // defer it: the release window [start, horizon − 500] is inverted.
  // The activity must run in place: held inside a predicted slot, and
  // released by the duty fallback with and without probes.
  Traces tr = make_traces();
  NetworkActivity late;
  late.app = tr.eval.activities.front().app;
  late.start = tr.eval.trace_end() - 200;
  late.duration = 100;
  late.bytes_down = 2000;
  late.deferrable = true;
  ASSERT_FALSE(tr.eval.screen_on_at(late.start));
  auto& acts = tr.eval.activities;
  const auto at = std::upper_bound(
      acts.begin(), acts.end(), late.start,
      [](TimeMs t, const NetworkActivity& a) { return t < a.start; });
  const auto late_index = static_cast<std::size_t>(at - acts.begin());
  acts.insert(at, late);
  tr.eval.validate();

  NetMasterConfig no_duty;
  no_duty.enable_duty = false;
  NetMasterConfig no_prediction;
  no_prediction.enable_prediction = false;
  NetMasterConfig neither = no_prediction;
  neither.enable_duty = false;
  for (const NetMasterConfig& cfg :
       {NetMasterConfig{}, no_duty, no_prediction, neither}) {
    const sim::PolicyOutcome o =
        NetMasterPolicy(tr.training, cfg).run(tr.eval);
    bool found = false;
    for (const sim::ExecutedTransfer& t : o.transfers) {
      if (t.activity_index != late_index) continue;
      found = true;
      EXPECT_EQ(t.start, late.start);
      EXPECT_EQ(t.duration, late.duration);
    }
    EXPECT_TRUE(found);
    EXPECT_NO_THROW(
        sim::account(tr.eval, o, RadioPowerParams::wcdma()));
  }
}

TEST(NetMaster, RejectsBadEps) {
  const Traces tr = make_traces();
  NetMasterConfig cfg;
  cfg.eps = 0.0;
  EXPECT_THROW(NetMasterPolicy(tr.training, cfg), Error);
  cfg.eps = 1.0;
  EXPECT_THROW(NetMasterPolicy(tr.training, cfg), Error);
}

TEST(NetMaster, DeferralLatenciesAreReasonable) {
  const Traces tr = make_traces();
  const NetMasterPolicy policy(tr.training, NetMasterConfig{});
  const sim::PolicyOutcome o = policy.run(tr.eval);
  EXPECT_FALSE(o.deferral_latency_s.empty());
  for (double lat : o.deferral_latency_s) {
    EXPECT_GE(lat, 0.0);
    EXPECT_LE(lat, 24.0 * 3600.0);  // never held past a day
  }
}

}  // namespace
}  // namespace netmaster::policy
