// Tests for the profit model and scheduling-instance builder.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mining/habits.hpp"
#include "sched/instance.hpp"

namespace netmaster::sched {
namespace {

/// A predictor mined from a trace with weekday usage at hours 8 and 18
/// every day (Pr = 1 there, 0 elsewhere).
mining::SlotPredictor make_predictor() {
  UserTrace t;
  t.user = 1;
  t.num_days = 7;
  t.app_names = {"a"};
  for (int day = 0; day < 7; ++day) {
    for (int hour : {8, 18}) {
      const TimeMs at = hour_start(day, hour) + kMsPerMinute;
      t.sessions.push_back({at, at + 5000});
      t.usages.push_back({0, at, 1000});
    }
  }
  return mining::SlotPredictor(mining::HabitModel::mine(t),
                               mining::PredictorConfig{});
}

NetworkActivity activity(TimeMs start, DurationMs dur = 2000,
                         std::int64_t bytes = 1000) {
  NetworkActivity n;
  n.app = 0;
  n.start = start;
  n.duration = dur;
  n.bytes_down = bytes;
  n.deferrable = true;
  return n;
}

TEST(ProfitModel, EnergySavingPositive) {
  const ProfitConfig cfg;
  const NetworkActivity n = activity(1000);
  EXPECT_GT(energy_saving_j(n, cfg), 0.0);
  // Longer transfers save at most the same overhead (tails are fixed).
  const NetworkActivity longer = activity(1000, 60'000);
  EXPECT_NEAR(energy_saving_j(n, cfg), energy_saving_j(longer, cfg),
              1e-9);
}

TEST(ProfitModel, PenaltyGrowsWithWindowAndProbability) {
  const ProfitConfig cfg;
  const mining::SlotPredictor pred = make_predictor();
  // Deferral across a quiet stretch (hours 2 -> 4): Pr = 0 everywhere.
  const double quiet = deferral_penalty_j(hour_start(0, 2),
                                          hour_start(0, 4), pred, cfg);
  EXPECT_DOUBLE_EQ(quiet, 0.0);
  // Deferral across the hour-8 active slot picks up probability mass.
  const double busy = deferral_penalty_j(hour_start(0, 7),
                                         hour_start(0, 10), pred, cfg);
  EXPECT_GT(busy, 0.0);
  // Widening the window can only grow the penalty.
  const double wider = deferral_penalty_j(hour_start(0, 5),
                                          hour_start(0, 12), pred, cfg);
  EXPECT_GT(wider, busy);
  // The penalty is symmetric in direction (prefetch windows charge the
  // same way).
  EXPECT_DOUBLE_EQ(deferral_penalty_j(hour_start(0, 10), hour_start(0, 7),
                                      pred, cfg),
                   busy);
}

TEST(ProfitModel, SlotCapacityEq5) {
  ProfitConfig cfg;
  cfg.bandwidth_kbps = 25.0;
  // A 1-hour slot: 25 kB/s * 3600 s = 90 MB.
  EXPECT_EQ(slot_capacity_bytes({0, kMsPerHour}, cfg), 90'000'000);
  cfg.bandwidth_kbps = 0.0;
  EXPECT_THROW(slot_capacity_bytes({0, kMsPerHour}, cfg), Error);
}

TEST(ProfitModel, AssignmentAnchor) {
  const Interval slot{1000, 2000};
  EXPECT_EQ(assignment_anchor(slot, 5000), 2000);  // preceding slot
  EXPECT_EQ(assignment_anchor(slot, 500), 1000);   // following slot
  EXPECT_EQ(assignment_anchor(slot, 1500), 1500);  // inside
}

TEST(BuildInstance, MapsItemsToAdjacentSlots) {
  const mining::SlotPredictor pred = make_predictor();
  const ProfitConfig cfg;
  const std::vector<Interval> slots = {
      {hour_start(0, 8), hour_start(0, 9)},
      {hour_start(0, 18), hour_start(0, 19)},
  };
  const std::vector<NetworkActivity> pending = {
      activity(hour_start(0, 3)),    // before first slot
      activity(hour_start(0, 12)),   // between slots
      activity(hour_start(0, 22)),   // after last slot
      activity(hour_start(0, 9)),    // at the first slot's (open) end
  };
  const Instance inst = build_instance(slots, {}, pending, pred, cfg);
  ASSERT_EQ(inst.items.size(), 4u);
  ASSERT_EQ(inst.slots.size(), 2u);

  EXPECT_EQ(inst.items[0].prev_slot, -1);
  EXPECT_EQ(inst.items[0].next_slot, 0);
  EXPECT_EQ(inst.items[1].prev_slot, 0);
  EXPECT_EQ(inst.items[1].next_slot, 1);
  EXPECT_EQ(inst.items[2].prev_slot, 1);
  EXPECT_EQ(inst.items[2].next_slot, -1);
  EXPECT_EQ(inst.items[3].prev_slot, 0);
  EXPECT_EQ(inst.items[3].next_slot, 1);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(inst.item_activity[i], i);
    EXPECT_EQ(inst.items[i].weight, pending[i].total_bytes());
  }
  EXPECT_TRUE(inst.unschedulable.empty());
}

TEST(BuildInstance, ExcludesInSlotActivities) {
  const mining::SlotPredictor pred = make_predictor();
  const std::vector<Interval> slots = {
      {hour_start(0, 8), hour_start(0, 9)}};
  const std::vector<NetworkActivity> pending = {
      activity(hour_start(0, 8) + kMsPerMinute),  // inside the slot
      activity(hour_start(0, 8))};                // at its begin
  const Instance inst = build_instance(slots, {}, pending, pred, {});
  EXPECT_TRUE(inst.items.empty());
  EXPECT_TRUE(inst.unschedulable.empty());
}

TEST(BuildInstance, NoSlotsMeansUnschedulable) {
  const mining::SlotPredictor pred = make_predictor();
  const std::vector<NetworkActivity> pending = {activity(1000)};
  const Instance inst = build_instance({}, {}, pending, pred, {});
  EXPECT_TRUE(inst.items.empty());
  ASSERT_EQ(inst.unschedulable.size(), 1u);
  EXPECT_EQ(inst.unschedulable[0], 0u);
}

TEST(BuildInstance, RejectsNonDeferrable) {
  const mining::SlotPredictor pred = make_predictor();
  NetworkActivity n = activity(1000);
  n.deferrable = false;
  EXPECT_THROW(
      build_instance({}, {}, std::vector<NetworkActivity>{n}, pred, {}),
      Error);
}

TEST(BuildInstance, RejectsOverlappingSlots) {
  const mining::SlotPredictor pred = make_predictor();
  const std::vector<Interval> slots = {{0, 2000}, {1000, 3000}};
  EXPECT_THROW(build_instance(slots, {}, {}, pred, {}), Error);
}

TEST(BuildInstance, ProfitReflectsDistance) {
  // An activity just before a slot has a smaller penalty than one far
  // before it (same ΔE), so its profit is at least as large.
  const mining::SlotPredictor pred = make_predictor();
  const std::vector<Interval> slots = {
      {hour_start(0, 18), hour_start(0, 19)}};
  const std::vector<NetworkActivity> near = {
      activity(hour_start(0, 17) + 50 * kMsPerMinute)};
  const std::vector<NetworkActivity> far = {activity(hour_start(0, 9))};
  const Instance inst_near = build_instance(slots, {}, near, pred, {});
  const Instance inst_far = build_instance(slots, {}, far, pred, {});
  EXPECT_GE(inst_near.items[0].profit, inst_far.items[0].profit);
}

TEST(WifiTransfer, DurationFromGoodputClampedToCellular) {
  ProfitConfig cfg;
  cfg.wifi_bandwidth_kbps = 400.0;
  // 1000 bytes at 400 kB/s (= bytes per ms) -> ceil(2.5) = 3 ms.
  EXPECT_EQ(wifi_transfer_ms(activity(0, 2000, 1000), cfg), 3);
  // Never shorter than one tick, even for zero bytes.
  EXPECT_EQ(wifi_transfer_ms(activity(0, 2000, 0), cfg), 1);
  // Never slower than the cellular execution it replaces.
  EXPECT_EQ(wifi_transfer_ms(activity(0, 2000, 10'000'000), cfg), 2000);
  cfg.wifi_bandwidth_kbps = 0.0;
  EXPECT_THROW(wifi_transfer_ms(activity(0), cfg), Error);
}

TEST(WifiTransfer, OffloadSavingPositiveForBulkFlows) {
  const ProfitConfig cfg;
  // A multi-second cellular transfer pays promotion + both tails; the
  // same bytes on WLAN finish quickly and pay only the association
  // burst and PSM tail, so offloading nets a saving.
  const NetworkActivity bulk = activity(0, 8000, 500'000);
  EXPECT_GT(wifi_offload_saving_j(bulk, cfg), 0.0);
  // The saving equals the difference of the two isolated-cost curves.
  EXPECT_DOUBLE_EQ(
      wifi_offload_saving_j(bulk, cfg),
      isolated_activity_energy(bulk.duration, cfg.radio) -
          isolated_activity_energy(wifi_transfer_ms(bulk, cfg), cfg.wifi));
}

TEST(BuildMultiradio, WifiWindowBecomesTaggedSlot) {
  const mining::SlotPredictor pred = make_predictor();
  const ProfitConfig cfg;
  const std::vector<Interval> slots = {
      {hour_start(0, 18), hour_start(0, 19)}};
  const std::vector<Interval> wifi = {
      {hour_start(0, 13), hour_start(0, 14)}};
  const std::vector<NetworkActivity> pending = {
      activity(hour_start(0, 12))};
  const Instance inst = build_instance(slots, wifi, pending, pred, cfg);
  ASSERT_EQ(inst.slots.size(), 2u);
  EXPECT_EQ(inst.num_cellular_slots, 1u);
  EXPECT_EQ(inst.slots[0].radio, RadioId::kCellular);
  EXPECT_EQ(inst.slots[1].radio, RadioId::kWifi);
  // The Wi-Fi knapsack is sized by the WLAN goodput, not the carrier.
  EXPECT_EQ(inst.slots[1].capacity,
            static_cast<std::int64_t>(cfg.wifi_bandwidth_kbps * 1000.0 *
                                      to_seconds(kMsPerHour)));

  // The item carries both candidates with their own profits: the
  // forward cellular slot and the Wi-Fi window following the arrival.
  ASSERT_EQ(inst.items.size(), 1u);
  const OverlapItem& item = inst.items[0];
  EXPECT_EQ(item.prev_slot, 0);
  EXPECT_EQ(item.next_slot, 1);
  const NetworkActivity& act = pending[0];
  const double cell_profit =
      energy_saving_j(act, cfg) -
      deferral_penalty_j(act.start, hour_start(0, 18), pred, cfg);
  const double wifi_profit =
      wifi_offload_saving_j(act, cfg) -
      deferral_penalty_j(act.start, hour_start(0, 13), pred, cfg);
  EXPECT_EQ(item.prev_profit, cell_profit);
  EXPECT_EQ(item.next_profit, wifi_profit);
  EXPECT_EQ(item.profit, cell_profit);
}

TEST(BuildMultiradio, WifiOnlyCoverageStillSchedulable) {
  const mining::SlotPredictor pred = make_predictor();
  const ProfitConfig cfg;
  // No cellular slots at all: without Wi-Fi this activity would be
  // unschedulable; a Wi-Fi presence window rescues it.
  const std::vector<Interval> wifi = {
      {hour_start(0, 13), hour_start(0, 14)}};
  const std::vector<NetworkActivity> pending = {
      activity(hour_start(0, 12))};
  const Instance inst = build_instance({}, wifi, pending, pred, cfg);
  EXPECT_TRUE(inst.unschedulable.empty());
  ASSERT_EQ(inst.items.size(), 1u);
  EXPECT_EQ(inst.items[0].prev_slot, -1);
  EXPECT_EQ(inst.items[0].next_slot, 0);
  EXPECT_EQ(inst.num_cellular_slots, 0u);
  const double wifi_profit =
      wifi_offload_saving_j(pending[0], cfg) -
      deferral_penalty_j(pending[0].start, hour_start(0, 13), pred, cfg);
  EXPECT_EQ(inst.items[0].profit, wifi_profit);

  // An arrival *inside* the window offloads immediately: no deferral
  // penalty at all.
  const std::vector<NetworkActivity> inside = {
      activity(hour_start(0, 13) + kMsPerMinute)};
  const Instance inst2 = build_instance({}, wifi, inside, pred, cfg);
  ASSERT_EQ(inst2.items.size(), 1u);
  EXPECT_EQ(inst2.items[0].profit, wifi_offload_saving_j(inside[0], cfg));
}

TEST(BuildMultiradio, RejectsOverlappingWifiWindows) {
  const mining::SlotPredictor pred = make_predictor();
  const std::vector<Interval> wifi = {{0, 2000}, {1000, 3000}};
  EXPECT_THROW(build_instance({}, wifi, {}, pred, {}), Error);
}

}  // namespace
}  // namespace netmaster::sched
