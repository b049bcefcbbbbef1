// End-to-end multi-radio co-scheduling: NetMaster with Wi-Fi offload
// enabled assigns streaming transfers a radio as well as a time, the
// off switch stays bit-identical to the single-radio policy, and the
// multi-radio accountant closes the loop on the resulting outcome.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::policy {
namespace {

struct Traces {
  UserTrace training;
  UserTrace eval;
};

/// 14-day training + 7-day eval from the podcast commuter — bulk
/// episode downloads on a habitual schedule, the classic offload
/// candidate.
Traces make_traces(std::uint64_t seed = 42) {
  const auto profile =
      synth::make_user(synth::Archetype::kPodcastCommuter, 3);
  const UserTrace full = synth::generate_trace(profile, 21, seed);
  return {full.slice_days(0, 14), full.slice_days(14, 7)};
}

std::size_t count_wifi(const sim::PolicyOutcome& o) {
  std::size_t n = 0;
  for (const sim::ExecutedTransfer& t : o.transfers) {
    n += t.radio == RadioId::kWifi;
  }
  return n;
}

TEST(Multiradio, OffSwitchLeavesEverythingCellular) {
  const Traces tr = make_traces();
  NetMasterConfig cfg;  // enable_wifi_offload defaults to false
  const NetMasterPolicy policy(tr.training, cfg);
  const sim::PolicyOutcome o = policy.run(tr.eval);
  EXPECT_EQ(count_wifi(o), 0u);
  // With an all-cellular outcome the RadioSet accountant reproduces
  // the single-radio report bit for bit.
  const sim::SimReport single =
      sim::account(tr.eval, o, RadioModel::wcdma());
  const sim::SimReport multi = sim::account(tr.eval, o, RadioSet{});
  EXPECT_EQ(multi.energy_j, single.energy_j);
  EXPECT_EQ(multi.radio_on_ms, single.radio_on_ms);
  EXPECT_EQ(multi.wifi_transfer_count, 0u);
}

TEST(Multiradio, OffloadAssignsWifiAndSavesEnergy) {
  const Traces tr = make_traces();
  NetMasterConfig off;
  NetMasterConfig on = off;
  on.enable_wifi_offload = true;

  const sim::PolicyOutcome o_off =
      NetMasterPolicy(tr.training, off).run(tr.eval);
  const sim::PolicyOutcome o_on =
      NetMasterPolicy(tr.training, on).run(tr.eval);
  EXPECT_GT(count_wifi(o_on), 0u);

  // Every activity still executes exactly once, inside the horizon.
  ASSERT_EQ(o_on.transfers.size(), tr.eval.activities.size());
  std::vector<bool> seen(tr.eval.activities.size(), false);
  for (const sim::ExecutedTransfer& t : o_on.transfers) {
    ASSERT_LT(t.activity_index, seen.size());
    EXPECT_FALSE(seen[t.activity_index]);
    seen[t.activity_index] = true;
    EXPECT_GE(t.start, 0);
    EXPECT_LE(t.start + t.duration, tr.eval.trace_end());
    const NetworkActivity& act = tr.eval.activities[t.activity_index];
    if (act.user_initiated) {
      EXPECT_EQ(t.radio, RadioId::kCellular);
      EXPECT_EQ(t.start, act.start);
    }
    if (t.radio == RadioId::kWifi) {
      // Offloads run the same bytes at WLAN goodput: never slower
      // than the cellular execution they replace.
      EXPECT_LE(t.duration, std::max<DurationMs>(act.duration, 1));
      EXPECT_GE(t.start, act.start);  // offload defers, never prefetches
    }
  }

  // The radio-aware schedule beats the single-radio one on the same
  // trace under the same multi-radio accountant.
  const RadioSet radios;
  const sim::SimReport rep_off = sim::account(tr.eval, o_off, radios);
  const sim::SimReport rep_on = sim::account(tr.eval, o_on, radios);
  EXPECT_EQ(rep_on.wifi_transfer_count, count_wifi(o_on));
  EXPECT_GT(rep_on.wifi_energy_j, 0.0);
  EXPECT_LE(rep_on.energy_j, rep_off.energy_j);
  EXPECT_EQ(rep_on.bytes_down + rep_on.bytes_up,
            rep_off.bytes_down + rep_off.bytes_up);
}

TEST(Multiradio, StricterPresenceThresholdOffloadsNoMore) {
  // A stricter Pr[u] threshold only drops hours: on one mined model the
  // presence windows at δ = 1 (only Pr == 1 hours qualify) lie inside
  // those at the policy's 0.55 on every day, so it offers no offload
  // window the looser threshold does not.
  const Traces tr = make_traces();
  const mining::SlotPredictor predictor(
      mining::mine_habits(tr.training).model, mining::PredictorConfig{});
  DurationMs strict_total = 0;
  for (int day = 0; day < 7; ++day) {
    const IntervalSet loose = predictor.presence_windows(day, 0.55);
    const IntervalSet strict = predictor.presence_windows(day, 1.0);
    for (const Interval& iv : strict.intervals()) {
      EXPECT_EQ(loose.overlap_length(iv.begin, iv.end), iv.length())
          << "day " << day;
    }
    strict_total += strict.total_length();
  }
  // The podcast commuter has Pr == 1 weekend hours, so the containment
  // is checked on real windows.
  EXPECT_GT(strict_total, 0);
}

TEST(Multiradio, OffloadRequiresPrediction) {
  // Wi-Fi presence windows come from the habit model; with prediction
  // ablated there is nothing to predict presence from, so the offload
  // path stays dormant even when enabled.
  const Traces tr = make_traces();
  NetMasterConfig cfg;
  cfg.enable_wifi_offload = true;
  cfg.enable_prediction = false;
  const sim::PolicyOutcome o =
      NetMasterPolicy(tr.training, cfg).run(tr.eval);
  EXPECT_EQ(count_wifi(o), 0u);
}

TEST(Multiradio, ConfigValidation) {
  const Traces tr = make_traces();
  NetMasterConfig cfg;
  cfg.enable_wifi_offload = true;
  cfg.profit.wifi.assoc_ms = -5;  // invalid Wi-Fi model is rejected
  EXPECT_THROW(NetMasterPolicy(tr.training, cfg), Error);
}

}  // namespace
}  // namespace netmaster::policy
