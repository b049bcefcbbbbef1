// Tests for the accounting layer (PolicyOutcome -> SimReport), and the
// equivalence of its two entry points: the index path (per-user
// TraceTotals plus the index's usage column, what the fleet runs) and
// the UserTrace adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "testkit/fault_plan.hpp"
#include "testkit/injector.hpp"
#include "fault/sanitize.hpp"
#include "obs/metrics.hpp"
#include "oracles/account_outcome.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "random_radio_model.hpp"
#include "synth/presets.hpp"

namespace netmaster::sim {
namespace {

UserTrace fixture() {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.sessions = {{seconds(50), seconds(80)}};
  t.usages = {{0, seconds(55), seconds(5)}, {0, seconds(70), seconds(5)}};
  NetworkActivity n1;
  n1.app = 0;
  n1.start = seconds(10);
  n1.duration = seconds(4);
  n1.bytes_down = 8000;
  n1.bytes_up = 2000;
  n1.deferrable = true;
  NetworkActivity n2 = n1;
  n2.start = seconds(60);
  n2.bytes_down = 4000;
  n2.bytes_up = 0;
  n2.user_initiated = true;
  n2.deferrable = false;
  t.activities = {n1, n2};
  return t;
}

PolicyOutcome in_place_outcome(const UserTrace& t) {
  PolicyOutcome o;
  o.policy_name = "test";
  for (std::size_t i = 0; i < t.activities.size(); ++i) {
    o.transfers.push_back(
        {i, t.activities[i].start, t.activities[i].duration});
  }
  return o;
}

TEST(Accounting, BasicMetrics) {
  const UserTrace t = fixture();
  const SimReport r =
      account(t, in_place_outcome(t), RadioPowerParams::wcdma());
  EXPECT_EQ(r.policy_name, "test");
  EXPECT_EQ(r.bytes_down, 12'000);
  EXPECT_EQ(r.bytes_up, 2000);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.radio_on_ms, 0);
  EXPECT_EQ(r.total_usages, 2u);
  EXPECT_EQ(r.screen_on_ms, seconds(30));
  EXPECT_EQ(r.horizon_ms, kMsPerDay);
  // Two isolated transfers: two promotions.
  EXPECT_EQ(r.radio.promotions, 2);
  // Peak rates from single activities: n1 down 8kB/4s = 2 kB/s.
  EXPECT_DOUBLE_EQ(r.peak_down_rate_kbps, 2.0);
  EXPECT_DOUBLE_EQ(r.peak_up_rate_kbps, 0.5);
  // Avg rate = bytes / radio-on seconds.
  EXPECT_NEAR(r.avg_down_rate_kbps,
              12.0 / to_seconds(r.radio_on_ms), 1e-9);
}

TEST(Accounting, MissingTransferThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.pop_back();
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, DuplicateTransferThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().activity_index = 0;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, TransferBeyondHorizonThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().start = t.trace_end() - 1000;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, UnknownActivityIndexThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().activity_index = 99;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, BlockedWindowsCountAffectedUsages) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.blocked.add(seconds(54), seconds(56));  // covers the first usage
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_EQ(r.affected_usages, 1u);
  EXPECT_DOUBLE_EQ(r.affected_fraction, 0.5);
}

TEST(Accounting, InterruptsAddToAffectedFraction) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.interrupts = 1;
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_DOUBLE_EQ(r.affected_fraction, 0.5);
  EXPECT_EQ(r.interrupts, 1u);
}

TEST(Accounting, DutyWakesChargedAtFachPower) {
  const UserTrace t = fixture();
  PolicyOutcome quiet = in_place_outcome(t);
  const SimReport base = account(t, quiet, RadioPowerParams::wcdma());

  PolicyOutcome with_wakes = in_place_outcome(t);
  with_wakes.wakes.push_back({seconds(200), 2000, false});
  const SimReport r = account(t, with_wakes, RadioPowerParams::wcdma());
  EXPECT_EQ(r.wake_count, 1u);
  const double expected = 460.0 * 2000 * 1e-6;
  EXPECT_NEAR(r.duty_energy_j, expected, 1e-9);
  EXPECT_NEAR(r.energy_j, base.energy_j + expected, 1e-9);
  EXPECT_EQ(r.radio_on_ms, base.radio_on_ms + 2000);
}

TEST(Accounting, WakeOverlappingTransferNotDoubleCharged) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  // Probe entirely inside the first transfer: zero extra energy.
  o.wakes.push_back({seconds(11), 2000, true});
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_DOUBLE_EQ(r.duty_energy_j, 0.0);
}

TEST(Accounting, RadioAllowedCutsEnergy) {
  const UserTrace t = fixture();
  PolicyOutcome stock = in_place_outcome(t);
  const SimReport full = account(t, stock, RadioPowerParams::wcdma());

  PolicyOutcome switched = in_place_outcome(t);
  switched.radio_allowed = IntervalSet{};  // tails cut after the grace
  const SimReport cut = account(t, switched, RadioPowerParams::wcdma());
  EXPECT_LT(cut.energy_j, full.energy_j);
  EXPECT_LT(cut.radio_on_ms, full.radio_on_ms);
}

TEST(Accounting, MeanDeferralLatency) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.deferral_latency_s = {10.0, 30.0};
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_EQ(r.deferred_count, 2u);
  EXPECT_DOUBLE_EQ(r.mean_deferral_latency_s, 20.0);
}

// ---- Multi-radio accountant (RadioSet overload) ----

TEST(Accounting, RadioSetAllCellularBitIdentical) {
  // Outcomes with no Wi-Fi transfers must reproduce the single-radio
  // report bit for bit through the RadioSet overload — this is what
  // lets the fleet layer route every run through one accountant.
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.wakes.push_back({seconds(200), 2000, false});
  o.deferral_latency_s = {10.0};
  RadioSet radios;  // wcdma cellular + wifi defaults
  const SimReport single = account(t, o, RadioModel::wcdma());
  const SimReport multi = account(t, o, radios);
  EXPECT_EQ(multi.energy_j, single.energy_j);
  EXPECT_EQ(multi.transfer_energy_j, single.transfer_energy_j);
  EXPECT_EQ(multi.duty_energy_j, single.duty_energy_j);
  EXPECT_EQ(multi.radio_on_ms, single.radio_on_ms);
  EXPECT_EQ(multi.radio.energy_j, single.radio.energy_j);
  EXPECT_DOUBLE_EQ(multi.wifi_energy_j, 0.0);
  EXPECT_EQ(multi.wifi_on_ms, 0);
  EXPECT_EQ(multi.wifi_transfer_count, 0u);
  EXPECT_EQ(multi.wifi.associations, 0);
}

TEST(Accounting, WifiTransfersPartitionedOntoOwnMachine) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  RadioSet radios;
  const SimReport r = account(t, o, radios);
  EXPECT_EQ(r.wifi_transfer_count, 1u);
  EXPECT_GT(r.wifi_energy_j, 0.0);
  EXPECT_GT(r.wifi_on_ms, 0);
  EXPECT_EQ(r.wifi.associations, 1);
  // One isolated cellular transfer remains: a single promotion.
  EXPECT_EQ(r.radio.promotions, 1);
  // The two interfaces sum into the headline figures.
  EXPECT_DOUBLE_EQ(r.transfer_energy_j,
                   r.radio.energy_j + r.wifi_energy_j);
  EXPECT_EQ(r.radio_on_ms, r.radio.radio_on_ms + r.wifi_on_ms);
  // Bytes are radio-agnostic.
  EXPECT_EQ(r.bytes_down, 12'000);
}

TEST(Accounting, WifiNotBehindCellularDataSwitch) {
  // A data switch that blocks everything outside the transfer windows
  // cuts cellular tails but leaves the Wi-Fi machine free-running: the
  // AP association is not behind `svc data disable`.
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  const RadioSet radios;
  const SimReport free_running = account(t, o, radios);
  o.radio_allowed = IntervalSet{};
  const SimReport switched = account(t, o, radios);
  EXPECT_EQ(switched.wifi_energy_j, free_running.wifi_energy_j);
  EXPECT_LT(switched.radio.energy_j, free_running.radio.energy_j);
}

TEST(Accounting, SingleRadioOverloadRejectsWifiTransfers) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  EXPECT_THROW(account(t, o, RadioModel::wcdma()), Error);
}

TEST(Accounting, EmptyTrace) {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  PolicyOutcome o;
  o.policy_name = "empty";
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_DOUBLE_EQ(r.energy_j, 0.0);
  EXPECT_EQ(r.radio_on_ms, 0);
  EXPECT_DOUBLE_EQ(r.affected_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.avg_down_rate_kbps, 0.0);
}

// ---- Index path vs UserTrace adapter ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_radio_identical(const RadioAccounting& a,
                            const RadioAccounting& b,
                            const std::string& context) {
  EXPECT_EQ(bits(a.energy_j), bits(b.energy_j)) << context;
  EXPECT_EQ(a.radio_on_ms, b.radio_on_ms) << context;
  EXPECT_EQ(a.active_ms, b.active_ms) << context;
  EXPECT_EQ(a.tail_tier_ms, b.tail_tier_ms) << context;
  EXPECT_EQ(a.promo_ms, b.promo_ms) << context;
  EXPECT_EQ(a.assoc_ms, b.assoc_ms) << context;
  EXPECT_EQ(a.promotions, b.promotions) << context;
  EXPECT_EQ(a.associations, b.associations) << context;
}

/// Every SimReport field, doubles compared bit for bit.
void expect_reports_identical(const SimReport& a, const SimReport& b,
                              const std::string& context) {
  EXPECT_EQ(a.policy_name, b.policy_name) << context;
  EXPECT_EQ(bits(a.energy_j), bits(b.energy_j)) << context;
  EXPECT_EQ(bits(a.transfer_energy_j), bits(b.transfer_energy_j))
      << context;
  EXPECT_EQ(bits(a.duty_energy_j), bits(b.duty_energy_j)) << context;
  EXPECT_EQ(a.radio_on_ms, b.radio_on_ms) << context;
  expect_radio_identical(a.radio, b.radio, context + " cellular");
  EXPECT_EQ(a.wake_count, b.wake_count) << context;
  EXPECT_EQ(bits(a.wifi_energy_j), bits(b.wifi_energy_j)) << context;
  EXPECT_EQ(a.wifi_on_ms, b.wifi_on_ms) << context;
  expect_radio_identical(a.wifi, b.wifi, context + " wifi");
  EXPECT_EQ(a.wifi_transfer_count, b.wifi_transfer_count) << context;
  EXPECT_EQ(a.bytes_down, b.bytes_down) << context;
  EXPECT_EQ(a.bytes_up, b.bytes_up) << context;
  EXPECT_EQ(bits(a.avg_down_rate_kbps), bits(b.avg_down_rate_kbps))
      << context;
  EXPECT_EQ(bits(a.avg_up_rate_kbps), bits(b.avg_up_rate_kbps)) << context;
  EXPECT_EQ(bits(a.peak_down_rate_kbps), bits(b.peak_down_rate_kbps))
      << context;
  EXPECT_EQ(bits(a.peak_up_rate_kbps), bits(b.peak_up_rate_kbps))
      << context;
  EXPECT_EQ(a.total_usages, b.total_usages) << context;
  EXPECT_EQ(a.affected_usages, b.affected_usages) << context;
  EXPECT_EQ(a.interrupts, b.interrupts) << context;
  EXPECT_EQ(bits(a.affected_fraction), bits(b.affected_fraction))
      << context;
  EXPECT_EQ(bits(a.mean_deferral_latency_s),
            bits(b.mean_deferral_latency_s))
      << context;
  EXPECT_EQ(a.deferred_count, b.deferred_count) << context;
  EXPECT_EQ(a.horizon_ms, b.horizon_ms) << context;
  EXPECT_EQ(a.screen_on_ms, b.screen_on_ms) << context;
  EXPECT_EQ(a.degraded, b.degraded) << context;
  EXPECT_EQ(a.degraded_reason, b.degraded_reason) << context;
  EXPECT_EQ(bits(a.drift_score), bits(b.drift_score)) << context;
}

/// The fleet roster: the §VI suite plus NetMaster on LTE with Wi-Fi
/// offload, accounted under the LTE/Wi-Fi radio set.
std::vector<eval::PolicySpec> roster(const policy::NetMasterConfig& nm) {
  std::vector<eval::PolicySpec> suite = eval::standard_policy_suite(nm);
  policy::NetMasterConfig lte = nm;
  lte.profit.radio = RadioModel::lte_cdrx();
  lte.enable_wifi_offload = true;
  RadioSet radios;
  radios.cellular = RadioModel::lte_cdrx();
  radios.wifi = nm.profit.wifi;
  suite.push_back({"netmaster-lte-wifi",
                   [lte](const UserTrace& training) {
                     return std::make_unique<policy::NetMasterPolicy>(
                         training, lte);
                   },
                   {},
                   radios});
  return suite;
}

TEST(AccountingEquivalence, IndexPathMatchesTraceAdapterBitForBit) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 3;
  const std::vector<eval::PolicySpec> suite = roster(cfg.netmaster);
  RadioSet session_radios;
  session_radios.cellular = cfg.netmaster.profit.radio;
  session_radios.wifi = cfg.netmaster.profit.wifi;

  std::size_t wifi_transfers = 0;
  std::size_t affected = 0;
  std::size_t reports = 0;
  for (int arch = 0; arch < 8; ++arch) {
    const eval::VolunteerTraces traces = eval::make_traces(
        synth::make_user(static_cast<synth::Archetype>(arch), arch), cfg);
    fault::FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(arch) + 1;
    for (const fault::FaultKind kind : fault::all_fault_kinds()) {
      plan.with(kind, 0.05);
    }
    const UserTrace dirty =
        fault::sanitize_trace(fault::inject_faults(traces.eval, plan).trace)
            .trace;
    for (const UserTrace* eval_trace : {&traces.eval, &dirty}) {
      const engine::TraceIndex index(*eval_trace);
      const TraceTotals totals = trace_totals(index);
      const std::string trace_name =
          "archetype " + std::to_string(arch) +
          (eval_trace == &dirty ? " faulted+sanitized" : " clean");

      // The totals themselves agree between the two representations.
      const TraceTotals aos = trace_totals(*eval_trace);
      EXPECT_EQ(totals.horizon_ms, aos.horizon_ms) << trace_name;
      EXPECT_EQ(totals.num_activities, aos.num_activities) << trace_name;
      EXPECT_EQ(totals.bytes_down, aos.bytes_down) << trace_name;
      EXPECT_EQ(totals.bytes_up, aos.bytes_up) << trace_name;
      EXPECT_EQ(bits(totals.peak_down_rate_kbps),
                bits(aos.peak_down_rate_kbps))
          << trace_name;
      EXPECT_EQ(bits(totals.peak_up_rate_kbps), bits(aos.peak_up_rate_kbps))
          << trace_name;
      EXPECT_EQ(totals.total_usages, aos.total_usages) << trace_name;
      EXPECT_EQ(totals.screen_on_ms, aos.screen_on_ms) << trace_name;

      for (const eval::PolicySpec& spec : suite) {
        const std::string context = trace_name + " " + spec.name;
        const PolicyOutcome outcome =
            spec.make(traces.training)->run(index);
        const RadioSet radios = spec.radios.value_or(session_radios);
        const SimReport via_index =
            account(totals, index.usages(), outcome, radios);
        const SimReport via_trace = account(*eval_trace, outcome, radios);
        expect_reports_identical(via_index, via_trace, context);
        wifi_transfers += via_index.wifi_transfer_count;
        affected += via_index.affected_usages;
        ++reports;
      }
    }
  }
  EXPECT_EQ(reports, 8u * 2u * suite.size());
  // The roster exercises the Wi-Fi partition and the blocked-usage
  // count, so the comparison above covers both.
  EXPECT_GT(wifi_transfers, 0u);
  EXPECT_GT(affected, 0u);
}

/// What an entry point throws: the message of the netmaster::Error (the
/// type is checked by catching only that), or "" when it returns.
template <typename F>
std::string thrown_error(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(AccountingEquivalence, InvalidOutcomesThrowTheSameErrorOnBothPaths) {
  const UserTrace t = fixture();
  const engine::TraceIndex index(t);
  const TraceTotals totals = trace_totals(index);
  const RadioSet radios;

  std::vector<std::pair<std::string, PolicyOutcome>> bad;
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.pop_back();
  bad.emplace_back("missing", o);
  o = in_place_outcome(t);
  o.transfers.push_back(o.transfers.front());
  bad.emplace_back("extra", o);
  o = in_place_outcome(t);
  o.transfers.back().activity_index = 0;
  bad.emplace_back("duplicate", o);
  o = in_place_outcome(t);
  o.transfers.back().activity_index = 99;
  bad.emplace_back("unknown index", o);
  o = in_place_outcome(t);
  o.transfers.back().start = t.trace_end() - 1000;
  bad.emplace_back("beyond the horizon", o);
  o = in_place_outcome(t);
  o.transfers.front().start = -1;
  bad.emplace_back("before the horizon", o);

  for (const auto& [name, outcome] : bad) {
    const std::string via_index = thrown_error(
        [&] { account(totals, index.usages(), outcome, radios); });
    const std::string via_trace =
        thrown_error([&] { account(t, outcome, radios); });
    EXPECT_FALSE(via_index.empty()) << name;
    EXPECT_EQ(via_index, via_trace) << name;
  }

  // Wi-Fi given to the single-radio overload.
  o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  EXPECT_NE(thrown_error([&] { account(t, o, RadioModel::wcdma()); })
                .find("non-cellular"),
            std::string::npos);
}

TEST(AccountingEquivalence, UnsortedUsagesCountLikePerUsageContains) {
  // Unvalidated traces may hold usages in any order. The merge cursor
  // re-seeks on a backwards step, so the count must equal the
  // per-usage IntervalSet::contains reference exactly.
  std::mt19937_64 rng(17);
  for (int round = 0; round < 50; ++round) {
    UserTrace t = fixture();
    t.usages.clear();
    std::uniform_int_distribution<TimeMs> when(-1000, t.trace_end() + 1000);
    const int n = static_cast<int>(rng() % 200);
    for (int i = 0; i < n; ++i) t.usages.push_back({0, when(rng), 0});
    if (round % 2 == 0) {
      std::sort(t.usages.begin(), t.usages.end(),
                [](const AppUsage& a, const AppUsage& b) {
                  return a.time < b.time;
                });
      if (round % 4 == 0) std::reverse(t.usages.begin(), t.usages.end());
    }
    PolicyOutcome o = in_place_outcome(t);
    const int windows = static_cast<int>(rng() % 30);
    for (int w = 0; w < windows; ++w) {
      const TimeMs begin = when(rng);
      o.blocked.add(begin, begin + static_cast<TimeMs>(rng() % 600'000));
    }
    std::size_t expected = 0;
    for (const AppUsage& u : t.usages) {
      if (o.blocked.contains(u.time)) ++expected;
    }
    const SimReport r = account(t, o, RadioModel::wcdma());
    EXPECT_EQ(r.affected_usages, expected) << "round " << round;
  }
}

// ---- The derived data switch ----
//
// sim::account never builds the allowed set: the integrator chains the
// executed runs, each held open for kDormancyGraceMs, with the
// switch's other windows as it goes. Each case accounts a switched
// outcome and compares the report with the materializing reference,
// which builds the allowed set window by window, bit for bit; the hand
// numbers say which cut the case is about.

/// The report of a switched outcome over `horizon`, checked against
/// the reference bit for bit.
SimReport switched_report(PolicyOutcome o, TimeMs horizon,
                          const RadioModel& cellular,
                          const std::string& context) {
  if (!o.radio_allowed.has_value()) o.radio_allowed = IntervalSet{};
  TraceTotals totals;
  totals.horizon_ms = horizon;
  totals.num_activities = o.transfers.size();
  RadioSet radios;
  radios.cellular = cellular;
  const SimReport got = account(totals, {}, o, radios);
  expect_reports_identical(
      got, oracles::account_outcome(totals, {}, o, radios), context);
  return got;
}

/// WCDMA without the IDLE promotion: a transfer's connected period ends
/// with it, so a trailing tail is exactly the switch's hold.
RadioModel instant_wcdma() {
  RadioModel m = RadioModel::wcdma();
  m.promo_idle_ms = 0;
  return m;
}

DurationMs tail_ms(const SimReport& r) {
  DurationMs total = 0;
  for (const DurationMs d : r.radio.tail_tier_ms) total += d;
  return total;
}

std::vector<ExecutedTransfer> cellular_transfers(
    std::initializer_list<std::pair<TimeMs, DurationMs>> times) {
  std::vector<ExecutedTransfer> out;
  for (const auto& [start, duration] : times) {
    out.push_back({out.size(), start, duration});
  }
  return out;
}

TEST(DerivedDataSwitch, ClampsWindowsToHorizon) {
  // The extra windows and a grace reaching past [0, horizon) are
  // clamped before the integrator sees them (it rejects a window past
  // the horizon); the trailing grace is cut at the horizon.
  IntervalSet extra;
  extra.add(-100, 50);    // clipped at 0
  extra.add(2000, 3000);  // fully past the horizon: dropped
  PolicyOutcome o;
  o.radio_allowed = extra;
  o.transfers = cellular_transfers({{900, 50}});
  o.wakes = {{400, 0, false}};  // empty: dropped
  const SimReport r = switched_report(o, 1000, instant_wcdma(), "clamp");
  EXPECT_EQ(tail_ms(r), 50);
}

TEST(DerivedDataSwitch, OneRunHoldsTheGraceRegardlessOfOrder) {
  // Overlapping and touching transfers, in both orders, form one run:
  // the grace follows the transfer that ends last.
  PolicyOutcome forward;
  forward.transfers = cellular_transfers(
      {{100, 100}, {150, 150}, {300, 100}, {50, 70}});
  PolicyOutcome reverse = forward;
  std::reverse(reverse.transfers.begin(), reverse.transfers.end());
  const SimReport a =
      switched_report(forward, 100'000, instant_wcdma(), "forward");
  const SimReport b =
      switched_report(reverse, 100'000, instant_wcdma(), "reverse");
  expect_reports_identical(a, b, "order");
  EXPECT_EQ(tail_ms(a), kDormancyGraceMs);
}

TEST(DerivedDataSwitch, TransfersExtendByGrace) {
  // [1000, 1500) holds the switch to 4500, so the gap to 9500 is cut
  // after the grace. The zero-length transfer at 8500 opens
  // [8500, 10'000), which the run ending at the horizon joins.
  PolicyOutcome o;
  o.transfers = cellular_transfers({{1000, 500}, {8500, 0}, {9500, 500}});
  const SimReport r = switched_report(o, 10'000, instant_wcdma(), "grace");
  EXPECT_EQ(tail_ms(r), kDormancyGraceMs);
  // A zero-length transfer at the horizon opens nothing.
  o.transfers = cellular_transfers({{10'000, 0}});
  EXPECT_EQ(switched_report(o, 10'000, instant_wcdma(), "at horizon")
                .radio.radio_on_ms,
            0);
}

TEST(DerivedDataSwitch, WifiTransfersDoNotOpenTheSwitch) {
  // A Wi-Fi transfer right after the cellular run would hold a switch
  // it opened until 12'000; the cellular tail still ends with the
  // grace.
  PolicyOutcome o;
  o.transfers = cellular_transfers({{1000, 500}, {1500, 7500}});
  o.transfers[1].radio = RadioId::kWifi;
  const SimReport r = switched_report(o, 100'000, instant_wcdma(), "wifi");
  EXPECT_EQ(tail_ms(r), kDormancyGraceMs);
  EXPECT_EQ(r.wifi_transfer_count, 1u);
}

TEST(DerivedDataSwitch, WakesCoverProbeWindows) {
  // A probe before any transfer, and one clipped at the horizon that
  // overlaps the last run's hold.
  PolicyOutcome o;
  o.transfers = cellular_transfers({{4000, 500}});
  o.wakes = {{100, 50, false}, {4990, 100, false}};
  const SimReport r = switched_report(o, 5000, instant_wcdma(), "wakes");
  EXPECT_EQ(tail_ms(r), 500);
  EXPECT_EQ(r.wake_count, 2u);
}

TEST(DerivedDataSwitch, RejectsNegativeHorizon) {
  PolicyOutcome o;
  o.radio_allowed = IntervalSet{};
  TraceTotals totals;
  totals.horizon_ms = -1;
  const RadioSet radios;
  EXPECT_THROW(account(totals, {}, o, radios), Error);
  EXPECT_THROW(oracles::account_outcome(totals, {}, o, radios), Error);
}

TEST(DerivedDataSwitch, GraceWindowBridgesTwoWakes) {
  // [2000, 2500) holds the switch to 5500, which touches the second
  // wake: [1000, 7000) is one chain, so the transfer at 6800 re-enters
  // the DCH tail (one promotion). Without the second wake the chain
  // ends at 5500 and the transfer attaches cold.
  PolicyOutcome o;
  o.transfers = cellular_transfers({{2000, 500}, {6800, 100}});
  o.wakes = {{1000, 1000, false}, {5500, 1500, false}};
  const SimReport bridged =
      switched_report(o, 100'000, RadioModel::wcdma(), "bridged");
  EXPECT_EQ(bridged.radio.promotions, 1);
  o.wakes.pop_back();
  const SimReport cut = switched_report(o, 100'000, RadioModel::wcdma(), "cut");
  EXPECT_EQ(cut.radio.promotions, 2);
}

TEST(DerivedDataSwitch, WakeBeginningWhereTheChainEndsJoinsIt) {
  // [1000, 1500) holds the switch to 4500 and the wake begins exactly
  // there: touching windows coalesce, so the chain runs to 8000 and
  // the transfer at 7000 stays warm. One millisecond later it would
  // not.
  PolicyOutcome o;
  o.transfers = cellular_transfers({{1000, 500}, {7000, 100}});
  o.wakes = {{4500, 3500, false}};
  EXPECT_EQ(switched_report(o, 100'000, RadioModel::wcdma(), "touching")
                .radio.promotions,
            1);
  o.wakes[0].time = 4501;
  o.wakes[0].window = 3499;
  EXPECT_EQ(switched_report(o, 100'000, RadioModel::wcdma(), "gap")
                .radio.promotions,
            2);
}

TEST(DerivedDataSwitch, ShiftPastTheGraceFallsToTheWindows) {
  // A long IDLE promotion (and, second, an association burst) pushes
  // connected_until past end + grace: the chain no longer holds the
  // tail's start, so only a window can keep the switch open there.
  for (const bool assoc : {false, true}) {
    RadioModel m = RadioModel::wcdma();
    if (assoc) {
      m.assoc_ms = 4000;
      m.assoc_mw = 300.0;
    } else {
      m.promo_idle_ms = 6000;
    }
    const std::string context = assoc ? "association" : "promotion";
    PolicyOutcome o;
    o.transfers = cellular_transfers({{1000, 500}, {9500, 100}});
    const SimReport closed = switched_report(o, 100'000, m, context);
    EXPECT_EQ(tail_ms(closed), 0) << context;
    // A wake holding the tail's start keeps the radio warm until 9500.
    o.wakes = {{7000, 3000, false}};
    const SimReport held = switched_report(o, 100'000, m, context + " held");
    EXPECT_GT(tail_ms(held), 0) << context;
    EXPECT_EQ(held.radio.promotions, 1) << context;
  }
}

TEST(DerivedDataSwitch, ZeroLengthTransferInTheLastGracePeriod) {
  // [16'000, 16'500) holds the switch to 19'500; a zero-length transfer
  // at 19'000 opens [19'000, 20'000), so the trailing tail runs to the
  // horizon instead of stopping after the grace.
  PolicyOutcome o;
  o.transfers = cellular_transfers({{16'000, 500}, {19'000, 0}});
  EXPECT_EQ(tail_ms(switched_report(o, 20'000, instant_wcdma(), "held")),
            3500);
  o.transfers[1].start = 15'000;
  EXPECT_EQ(tail_ms(switched_report(o, 20'000, instant_wcdma(), "earlier")),
            kDormancyGraceMs);
}

TEST(DerivedDataSwitch, SlotPoweredExtraWindows) {
  // Slot-powered radio: the predicted slots are extra windows. Inside
  // one, tails run to completion; a run's hold that reaches a slot
  // joins it; outside, tails end with the grace.
  IntervalSet slots;
  slots.add(kMsPerHour, 2 * kMsPerHour);
  slots.add(3 * kMsPerHour, 4 * kMsPerHour);
  PolicyOutcome o;
  o.radio_allowed = slots;
  o.transfers = cellular_transfers({
      {1000, 500},                      // outside: cut after the grace
      {kMsPerHour - 2000, 500},         // its hold reaches the slot
      {kMsPerHour + 60'000, 800},       // inside: the full chain
      {kMsPerHour + 70'000, 800},
      {2 * kMsPerHour - 1000, 400},     // tail cut at the slot's end
      {3 * kMsPerHour - 100, 5000},     // runs into the next slot
      {4 * kMsPerHour + 10'000, 100},
  });
  const TimeMs horizon = 5 * kMsPerHour;
  const SimReport instant =
      switched_report(o, horizon, instant_wcdma(), "instant");
  const SimReport wcdma =
      switched_report(o, horizon, RadioModel::wcdma(), "wcdma");
  EXPECT_GT(tail_ms(wcdma), 0);
  EXPECT_GT(tail_ms(instant), 0);
  for (const RadioModel& m : {RadioModel::lte_cdrx(), RadioModel::nr_cdrx()}) {
    switched_report(o, horizon, m, "tiers");
  }
}

TEST(DerivedDataSwitch, TiedAndManyRunLateArrivals) {
  // Late arrivals in many descending blocks, with tied begins, canonicalize
  // to the same schedule as their sorted order.
  std::mt19937_64 rng(20261022);
  for (int iter = 0; iter < 50; ++iter) {
    PolicyOutcome o;
    const std::size_t blocks = 1 + rng() % 60;
    TimeMs block_start = 5'000'000;
    for (std::size_t b = 0; b < blocks; ++b) {
      block_start -= 1000 + static_cast<TimeMs>(rng() % 80'000);
      TimeMs t = block_start;
      const std::size_t n = 1 + rng() % 20;
      for (std::size_t k = 0; k < n; ++k) {
        const DurationMs dur = static_cast<DurationMs>(rng() % 3000);
        o.transfers.push_back({o.transfers.size(), t, dur});
        if (rng() % 3 != 0) t += static_cast<TimeMs>(rng() % 9000);  // else tied
      }
    }
    if (rng() % 2 == 0) o.wakes = {{block_start + 500, 2000, false}};
    PolicyOutcome sorted = o;
    std::stable_sort(sorted.transfers.begin(), sorted.transfers.end(),
                     [](const ExecutedTransfer& x, const ExecutedTransfer& y) {
                       return x.start < y.start;
                     });
    const std::string context = "iter " + std::to_string(iter);
    for (const RadioModel& m : {instant_wcdma(), RadioModel::wcdma()}) {
      expect_reports_identical(
          switched_report(o, 5'100'000, m, context),
          switched_report(sorted, 5'100'000, m, context + " sorted"),
          context);
    }
  }
}

// ---- Streaming accountant vs the materializing reference ----

/// The message of a netmaster::Error, without the failed condition and
/// its source location (the reference spells its checks differently).
std::string message_of(const std::string& what) {
  const std::size_t dash = what.find("\u2014");
  return dash == std::string::npos ? what : what.substr(dash);
}

std::uint64_t canonicalized_count() {
  return obs::Registry::global().counter("sim.account.canonicalized").value();
}

/// One random accounting input: a trace summary, its usages, and
/// an outcome mixing in-order, touching, overlapping, zero-length and
/// late transfers, with Wi-Fi offloads, duty wakes and a data switch
/// each on some draws.
struct RandomCase {
  TraceTotals totals;
  std::vector<AppUsage> usages;
  PolicyOutcome outcome;
  RadioSet radios;
};

RandomCase random_case(std::mt19937_64& rng) {
  RandomCase c;
  TraceTotals& tt = c.totals;
  tt.horizon_ms = 10'000 + static_cast<TimeMs>(rng() % 5'000'000);
  tt.num_activities = rng() % 8 == 0 ? rng() % 3 : rng() % 600;
  tt.bytes_down = static_cast<std::int64_t>(rng() % 10'000'000);
  tt.bytes_up = static_cast<std::int64_t>(rng() % 1'000'000);
  tt.peak_down_rate_kbps = static_cast<double>(rng() % 5000) / 7.0;
  tt.peak_up_rate_kbps = static_cast<double>(rng() % 500) / 7.0;
  tt.screen_on_ms = static_cast<DurationMs>(rng() % 100'000);
  const std::size_t num_usages = rng() % 50;
  for (std::size_t i = 0; i < num_usages; ++i) {
    AppUsage& u = c.usages.emplace_back();
    u.time = static_cast<TimeMs>(rng() %
                                 static_cast<std::uint64_t>(tt.horizon_ms));
  }
  if (rng() % 2 == 0) std::ranges::sort(c.usages, {}, &AppUsage::time);
  tt.total_usages = c.usages.size() + rng() % 3;

  PolicyOutcome& o = c.outcome;
  o.policy_name = "random-policy-with-a-long-name";
  o.path = rng() % 4 == 0 ? ExecutionPath::kDegradedFallback
                          : ExecutionPath::kNormal;
  if (o.path == ExecutionPath::kDegradedFallback) o.degraded_reason = "why";
  o.drift_score = static_cast<double>(rng() % 1000) / 1000.0;
  o.interrupts = rng() % 3;

  // Executed times in start order: same begin, touching, overlapping,
  // nested or gapped; then a few late arrivals (sometimes the last one)
  // that begin before the schedule reached them.
  const std::size_t n = tt.num_activities;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  const TimeMs horizon = tt.horizon_ms;
  const TimeMs step_scale = std::max<TimeMs>(1, horizon / (2 * (n + 1)));
  TimeMs t = static_cast<TimeMs>(rng() % static_cast<std::uint64_t>(
                                              step_scale));
  for (std::size_t k = 0; k < n; ++k) {
    DurationMs dur = rng() % 10 == 0 ? 0
                                     : static_cast<DurationMs>(rng() % 4000);
    TimeMs start = std::min<TimeMs>(t, horizon);
    dur = std::min<DurationMs>(dur, horizon - start);
    o.transfers.push_back({order[k], start, dur});
    switch (rng() % 5) {
      case 0: break;
      case 1: t += dur; break;
      case 2: t += dur / 2; break;
      default:
        t += dur + static_cast<TimeMs>(
                       rng() % static_cast<std::uint64_t>(2 * step_scale));
    }
  }
  if (n > 0 && rng() % 3 == 0) {
    const std::size_t late = 1 + rng() % 3;
    for (std::size_t l = 0; l < late; ++l) {
      const std::size_t k = rng() % 2 == 0 ? n - 1 : rng() % n;
      ExecutedTransfer& x = o.transfers[k];
      x.start = static_cast<TimeMs>(
          rng() % static_cast<std::uint64_t>(x.start + 1));
    }
  }
  if (rng() % 4 == 0) {
    for (ExecutedTransfer& x : o.transfers) {
      if (rng() % 3 == 0) x.radio = RadioId::kWifi;
    }
  }
  if (rng() % 4 == 0) {
    const std::size_t wakes = rng() % 40;
    TimeMs w = 0;
    for (std::size_t i = 0; i < wakes; ++i) {
      w += static_cast<TimeMs>(rng() % static_cast<std::uint64_t>(
                                           horizon / 20 + 1));
      // Mostly in time order; sometimes a step back.
      const TimeMs at = rng() % 8 == 0 ? w / 2 : w;
      o.wakes.push_back({at, static_cast<DurationMs>(rng() % 5000),
                         rng() % 2 == 0});
    }
  }
  if (rng() % 4 == 0) {
    IntervalSet allowed;
    const std::size_t windows = rng() % 30;
    for (std::size_t i = 0; i < windows; ++i) {
      const TimeMs b = static_cast<TimeMs>(
          rng() % static_cast<std::uint64_t>(horizon + 5000)) - 2000;
      allowed.add(b, b + static_cast<DurationMs>(rng() % 60'000));
    }
    o.radio_allowed = std::move(allowed);
  }
  const std::size_t blocked = rng() % 10;
  for (std::size_t i = 0; i < blocked; ++i) {
    const TimeMs b = static_cast<TimeMs>(
        rng() % static_cast<std::uint64_t>(horizon));
    o.blocked.add(b, b + static_cast<DurationMs>(rng() % 600'000));
  }
  const std::size_t deferred = rng() % 20;
  for (std::size_t i = 0; i < deferred; ++i) {
    o.deferral_latency_s.push_back(static_cast<double>(rng() % 10'000) / 3.0);
  }

  c.radios.cellular = rng() % 2 == 0 ? random_model(rng) : RadioModel::wcdma();
  c.radios.wifi = rng() % 2 == 0 ? random_model(rng) : RadioModel::wifi();
  return c;
}

TEST(AccountingProperty, CanonicalizedCounterCountsTheMaterializingPath) {
  const UserTrace t = fixture();
  const auto bumps = [&](const PolicyOutcome& o) {
    const std::uint64_t before = canonicalized_count();
    account(t, o, RadioModel::wcdma());
    return canonicalized_count() - before;
  };
  PolicyOutcome o = in_place_outcome(t);
  EXPECT_EQ(bumps(o), 0u);  // in order, stock radio: streamed
  std::swap(o.transfers.front(), o.transfers.back());
  EXPECT_EQ(bumps(o), 1u);  // a late arrival
  o = in_place_outcome(t);
  o.radio_allowed = IntervalSet{};
  EXPECT_EQ(bumps(o), 1u);  // a data switch
  o = in_place_outcome(t);
  o.wakes.push_back({seconds(30), seconds(1), false});
  EXPECT_EQ(bumps(o), 1u);  // duty wakes
}

TEST(AccountingProperty, MatchesTheMaterializingReferenceBitForBit) {
  std::mt19937_64 rng(20261019);
  std::size_t streamed = 0;
  std::size_t canonicalized = 0;
  std::size_t refused = 0;  // stock, cellular-only, yet canonicalized
  for (int iter = 0; iter < 600; ++iter) {
    const RandomCase c = random_case(rng);
    const std::string context = "iter " + std::to_string(iter);
    const std::uint64_t before = canonicalized_count();
    const SimReport got =
        account(c.totals, c.usages, c.outcome, c.radios);
    const bool canonical = canonicalized_count() != before;
    const SimReport want = oracles::account_outcome(
        c.totals, c.usages, c.outcome, c.radios);
    expect_reports_identical(got, want, context);
    ++(canonical ? canonicalized : streamed);
    const bool stock = !c.outcome.radio_allowed.has_value() &&
                       c.outcome.wakes.empty() &&
                       got.wifi_transfer_count == 0;
    refused += stock && canonical;
  }
  // Both paths, and the fall-back from a refused arrival, are covered.
  EXPECT_GT(streamed, 100u);
  EXPECT_GT(canonicalized, 100u);
  EXPECT_GT(refused, 20u);
}

TEST(AccountingProperty, DerivedSwitchMatchesThePerTransferWindows) {
  // The integrator derives the data switch's cuts from the runs it has
  // integrated and the switch's other windows; the report must equal
  // the reference's, which integrates under the per-transfer grace
  // windows the policies once built. Every case drives the switch; the
  // first transfers are planted on the edges: a run ending at the
  // horizon and zero-length transfers at the horizon and at 0.
  std::mt19937_64 rng(20261021);
  std::size_t zero_length = 0;
  std::size_t with_extras = 0;
  std::size_t with_wakes = 0;
  for (int iter = 0; iter < 600; ++iter) {
    RandomCase c = random_case(rng);
    PolicyOutcome& o = c.outcome;
    const TimeMs horizon = c.totals.horizon_ms;
    if (!o.radio_allowed.has_value()) o.radio_allowed = IntervalSet{};
    if (o.transfers.size() >= 3 && rng() % 2 == 0) {
      o.transfers[0].start = horizon - 500;
      o.transfers[0].duration = 500;
      o.transfers[1].start = horizon;
      o.transfers[1].duration = 0;
      o.transfers[2].start = 0;
      o.transfers[2].duration = 0;
      for (std::size_t k = 0; k < 3; ++k) {
        o.transfers[k].radio = RadioId::kCellular;
      }
    }
    for (const ExecutedTransfer& t : o.transfers) {
      zero_length += t.duration == 0 && t.radio == RadioId::kCellular;
    }
    with_extras += !o.radio_allowed->empty();
    with_wakes += !o.wakes.empty();
    const std::string context = "iter " + std::to_string(iter);
    expect_reports_identical(
        account(c.totals, c.usages, o, c.radios),
        oracles::account_outcome(c.totals, c.usages, o, c.radios),
        context);
  }
  EXPECT_GT(zero_length, 1000u);
  EXPECT_GT(with_extras, 100u);
  EXPECT_GT(with_wakes, 100u);
}

TEST(AccountingProperty, InvalidOutcomesThrowLikeTheReference) {
  std::mt19937_64 rng(20261020);
  std::size_t thrown = 0;
  for (int iter = 0; iter < 600; ++iter) {
    RandomCase c = random_case(rng);
    PolicyOutcome& o = c.outcome;
    // One or two defects at random positions, so the first one in
    // transfer order decides the message.
    const std::size_t defects = 1 + rng() % 2;
    for (std::size_t d = 0; d < defects; ++d) {
      const std::size_t n = o.transfers.size();
      const std::size_t k = n == 0 ? 0 : rng() % n;
      switch (rng() % 5) {
        case 0:  // count mismatch
          if (rng() % 2 == 0 && n > 0) {
            o.transfers.pop_back();
          } else {
            o.transfers.push_back({0, 0, 0});
          }
          break;
        case 1:  // unknown activity
          if (n > 0) {
            o.transfers[k].activity_index =
                c.totals.num_activities + rng() % 5;
          }
          break;
        case 2:  // duplicate
          if (n > 1) {
            o.transfers[k].activity_index =
                o.transfers[(k + 1) % n].activity_index;
          }
          break;
        case 3:  // beyond the horizon
          if (n > 0) {
            o.transfers[k].start = c.totals.horizon_ms - 1;
            o.transfers[k].duration = 2 + static_cast<DurationMs>(rng() % 9);
          }
          break;
        default:  // before the horizon
          if (n > 0) o.transfers[k].start = -1;
      }
    }
    const std::string got = thrown_error(
        [&] { account(c.totals, c.usages, o, c.radios); });
    const std::string want = thrown_error([&] {
      oracles::account_outcome(c.totals, c.usages, o, c.radios);
    });
    EXPECT_EQ(message_of(got), message_of(want)) << "iter " << iter;
    thrown += !want.empty();
  }
  EXPECT_GT(thrown, 400u);
}

TEST(AccountingProperty, NegativeDurationThrowsLikeTheReference) {
  // A negative duration at a random position, sometimes behind a
  // transfer that leaves the horizon: the first defect in transfer
  // order decides the message, on both accountants.
  std::mt19937_64 rng(20261022);
  std::size_t negative = 0;
  for (int iter = 0; iter < 300; ++iter) {
    RandomCase c = random_case(rng);
    std::vector<ExecutedTransfer>& transfers = c.outcome.transfers;
    if (transfers.empty()) continue;
    const std::size_t k = rng() % transfers.size();
    transfers[k].duration = -1 - static_cast<DurationMs>(rng() % 5000);
    if (rng() % 3 == 0) transfers[rng() % transfers.size()].start = -1;
    const std::string got = thrown_error(
        [&] { account(c.totals, c.usages, c.outcome, c.radios); });
    const std::string want = thrown_error([&] {
      oracles::account_outcome(c.totals, c.usages, c.outcome, c.radios);
    });
    EXPECT_EQ(message_of(got), message_of(want)) << "iter " << iter;
    negative += want.find("negative duration") != std::string::npos;
  }
  EXPECT_GT(negative, 100u);
}

}  // namespace
}  // namespace netmaster::sim
