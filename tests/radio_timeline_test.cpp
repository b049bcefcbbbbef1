// Tests for engine::RadioTimeline: horizon clamping, the canonical
// (order-independent) union, and the transfer/wake convenience
// builders matching the hand-assembled IntervalSets they replaced.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "engine/radio_timeline.hpp"
#include "oracles/account_transfers.hpp"

namespace netmaster::engine {
namespace {

using oracles::account_transfers;

TEST(RadioTimeline, ClampsWindowsToHorizon) {
  RadioTimeline timeline(1000);
  timeline.allow(-100, 50);    // clipped at 0
  timeline.allow(900, 5000);   // clipped at the horizon
  timeline.allow(400, 400);    // empty: dropped
  timeline.allow(300, 200);    // inverted: dropped
  timeline.allow(2000, 3000);  // fully past the horizon: dropped
  const IntervalSet set = timeline.build();
  ASSERT_EQ(set.intervals().size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 50}));
  EXPECT_EQ(set.intervals()[1], (Interval{900, 1000}));
}

TEST(RadioTimeline, UnionIsCanonicalRegardlessOfOrder) {
  const std::vector<Interval> windows = {
      {100, 200}, {150, 300}, {300, 400}, {50, 120}};
  RadioTimeline forward(1000);
  for (const Interval& w : windows) forward.allow(w);
  RadioTimeline reverse(1000);
  for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
    reverse.allow(*it);
  }
  EXPECT_EQ(forward.allowed().intervals(), reverse.allowed().intervals());
  // Touching/overlapping windows merge into one canonical interval.
  ASSERT_EQ(forward.allowed().intervals().size(), 1u);
  EXPECT_EQ(forward.allowed().intervals()[0], (Interval{50, 400}));
}

TEST(RadioTimeline, TransfersExtendByGrace) {
  RadioTimeline timeline(10000);
  const std::vector<sim::ExecutedTransfer> transfers = {
      {0, 1000, 500},   // -> [1000, 1500 + grace)
      {1, 8500, 1000},  // -> clipped at the horizon
  };
  timeline.allow_transfers(transfers, 3000);
  const IntervalSet set = timeline.build();
  ASSERT_EQ(set.intervals().size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{1000, 4500}));
  EXPECT_EQ(set.intervals()[1], (Interval{8500, 10000}));

  // Zero grace covers exactly the execution windows.
  RadioTimeline bare(10000);
  bare.allow_transfers(transfers);
  EXPECT_EQ(bare.allowed().intervals()[0], (Interval{1000, 1500}));
}

TEST(RadioTimeline, WakesCoverProbeWindows) {
  RadioTimeline timeline(5000);
  std::vector<duty::WakeEvent> wakes(2);
  wakes[0].time = 100;
  wakes[0].window = 50;
  wakes[1].time = 4990;
  wakes[1].window = 100;  // clipped at the horizon
  timeline.allow_wakes(wakes);
  const IntervalSet set = timeline.build();
  ASSERT_EQ(set.intervals().size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{100, 150}));
  EXPECT_EQ(set.intervals()[1], (Interval{4990, 5000}));
}

TEST(RadioTimeline, MatchesHandAssembledSet) {
  // The construction the policies used to do by hand: transfer windows
  // plus grace, unioned with an existing allowed set.
  const std::vector<sim::ExecutedTransfer> transfers = {{0, 100, 200},
                                                        {1, 600, 100}};
  IntervalSet by_hand;
  for (const sim::ExecutedTransfer& tr : transfers) {
    by_hand.add(tr.start, std::min<TimeMs>(tr.start + tr.duration + 300,
                                           2000));
  }
  by_hand.add(1500, 1800);

  RadioTimeline timeline(2000);
  IntervalSet prior;
  prior.add(1500, 1800);
  timeline.allow(prior);
  timeline.allow_transfers(transfers, 300);
  EXPECT_EQ(timeline.build().intervals(), by_hand.intervals());
}

TEST(RadioTimeline, BulkAllowsMatchThePerWindowPath) {
  // Random windows straddling 0 and the horizon, unioned into a
  // timeline that already holds windows: the set union (allow(set)),
  // the batched slot windows, wakes and transfers must equal clamping
  // and adding window by window. Transfers carry a grace and a random
  // radio; Wi-Fi ones must not open the cellular switch.
  constexpr TimeMs kHorizon = 1000;
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<TimeMs> start(-150, kHorizon + 50);
  std::uniform_int_distribution<DurationMs> length(0, 120);
  std::uniform_int_distribution<DurationMs> grace_ms(0, 200);
  std::bernoulli_distribution on_wifi(0.25);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Interval> prior;
    std::vector<Interval> windows;
    std::vector<duty::WakeEvent> wakes;
    std::vector<sim::ExecutedTransfer> transfers;
    for (int k = 0; k < 15; ++k) {
      const TimeMs p = start(rng);
      prior.push_back({p, p + length(rng)});
      const TimeMs w = start(rng);
      windows.push_back({w, w + length(rng)});
      duty::WakeEvent wake;
      wake.time = start(rng);
      wake.window = length(rng);
      wakes.push_back(wake);
      sim::ExecutedTransfer t;
      t.activity_index = static_cast<std::size_t>(k);
      t.start = start(rng);
      t.duration = length(rng);
      t.radio = on_wifi(rng) ? RadioId::kWifi : RadioId::kCellular;
      transfers.push_back(t);
    }
    const DurationMs grace = grace_ms(rng);

    RadioTimeline per_window(kHorizon);
    for (const Interval& iv : prior) per_window.allow(iv);
    for (const Interval& iv : windows) per_window.allow(iv);
    for (const duty::WakeEvent& w : wakes) {
      per_window.allow(w.time, w.time + w.window);
    }
    for (const sim::ExecutedTransfer& t : transfers) {
      if (t.radio == RadioId::kWifi) continue;
      per_window.allow(t.start, t.start + t.duration + grace);
    }

    RadioTimeline bulk(kHorizon);
    bulk.allow_windows(prior);
    bulk.allow(IntervalSet(windows));  // unclamped: crosses 0 / horizon
    bulk.allow_wakes(wakes);
    bulk.allow_transfers(transfers, grace);
    ASSERT_EQ(bulk.allowed().intervals(), per_window.allowed().intervals())
        << "trial " << trial;

    // Transfers alone, into an empty timeline.
    RadioTimeline transfers_only(kHorizon);
    transfers_only.allow_transfers(transfers, grace);
    RadioTimeline transfers_per_window(kHorizon);
    for (const sim::ExecutedTransfer& t : transfers) {
      if (t.radio == RadioId::kWifi) continue;
      transfers_per_window.allow(t.start, t.start + t.duration + grace);
    }
    ASSERT_EQ(transfers_only.allowed().intervals(),
              transfers_per_window.allowed().intervals())
        << "trial " << trial;
  }
}

TEST(RadioTimeline, RejectsNegativeHorizon) {
  EXPECT_THROW(RadioTimeline(-1), Error);
}

// ---------------------------------------------------------------------------
// Differential tests: the vectorized SoA accounting kernel
// (account_columns / account_interval_set) against the reference
// branchy implementation (tests/oracles/account_transfers.hpp).
// The contract is bit-for-bit equality — every integer field AND the
// energy double — on every input.

void expect_accounting_equal(const RadioAccounting& got,
                             const RadioAccounting& want,
                             const std::string& context) {
  EXPECT_EQ(got.active_ms, want.active_ms) << context;
  for (std::size_t tier = 0; tier < got.tail_tier_ms.size(); ++tier) {
    EXPECT_EQ(got.tail_tier_ms[tier], want.tail_tier_ms[tier])
        << context << " tier " << tier;
  }
  EXPECT_EQ(got.promo_ms, want.promo_ms) << context;
  EXPECT_EQ(got.promotions, want.promotions) << context;
  EXPECT_EQ(got.assoc_ms, want.assoc_ms) << context;
  EXPECT_EQ(got.associations, want.associations) << context;
  EXPECT_EQ(got.radio_on_ms, want.radio_on_ms) << context;
  // Bitwise, not approximate: the kernel derives energy from the same
  // integer totals with the same expression.
  EXPECT_EQ(got.energy_j, want.energy_j) << context;
}

void expect_matches_reference(const IntervalSet& transfers,
                              const RadioModel& model,
                              TimeMs horizon,
                              const IntervalSet* allowed,
                              const std::string& context) {
  const RadioAccounting want =
      account_transfers(transfers, model, horizon, allowed);
  const RadioAccounting got =
      account_interval_set(transfers, model, horizon, allowed);
  expect_accounting_equal(got, want, context);
}

std::vector<RadioPowerParams> param_suite() {
  std::vector<RadioPowerParams> suite;
  suite.push_back(RadioPowerParams::wcdma());
  suite.push_back(RadioPowerParams::lte());  // promo_fach_ms == 0
  RadioPowerParams zero_tails = RadioPowerParams::wcdma();
  zero_tails.dch_tail_ms = 0;
  zero_tails.fach_tail_ms = 0;
  suite.push_back(zero_tails);
  RadioPowerParams zero_promos = RadioPowerParams::wcdma();
  zero_promos.promo_idle_ms = 0;
  zero_promos.promo_fach_ms = 0;
  suite.push_back(zero_promos);
  return suite;
}

TEST(AccountColumns, MatchesReferenceOnEdgeCases) {
  const TimeMs horizon = 100000;
  std::vector<std::pair<std::string, IntervalSet>> cases;
  cases.emplace_back("empty", IntervalSet{});
  {
    IntervalSet one;
    one.add(1000, 1500);
    cases.emplace_back("single", one);
  }
  {
    // Gaps landing exactly on the DCH-tail and FACH-tail boundaries —
    // the promotion-class edges the boolean selectors must get right.
    IntervalSet s;
    const RadioPowerParams p = RadioPowerParams::wcdma();
    TimeMs connected = 0 + p.promo_idle_ms + 500;  // first transfer end
    s.add(0, 500);
    s.add(connected + p.dch_tail_ms, connected + p.dch_tail_ms + 100);
    cases.emplace_back("gap-at-dch-boundary", s);
  }
  {
    IntervalSet s;
    s.add(0, 200);
    s.add(100000 - 300, 100000);  // ends exactly at the horizon
    cases.emplace_back("ends-at-horizon", s);
  }
  {
    IntervalSet s;  // back-to-back: connected period just extends
    s.add(0, 1000);
    s.add(1001, 2000);
    s.add(2001, 3000);
    cases.emplace_back("near-contiguous", s);
  }
  for (const RadioPowerParams& params : param_suite()) {
    for (const auto& [name, set] : cases) {
      expect_matches_reference(set, params, horizon, nullptr, name);
      // With an allowed set cutting shortly after each transfer.
      RadioTimeline timeline(horizon);
      timeline.allow(set);
      for (const Interval& iv : set.intervals()) {
        timeline.allow(iv.begin, iv.end + 700);
      }
      const IntervalSet allowed = std::move(timeline).build();
      expect_matches_reference(set, params, horizon, &allowed,
                               name + "+allowed");
    }
  }
}

TEST(AccountColumns, FuzzMatchesReference) {
  std::mt19937_64 rng(20260808);
  const std::vector<RadioPowerParams> params = param_suite();
  for (int iter = 0; iter < 400; ++iter) {
    const TimeMs horizon = 50000 + static_cast<TimeMs>(rng() % 200000);
    const int n = static_cast<int>(rng() % 40);
    IntervalSet transfers;
    TimeMs t = static_cast<TimeMs>(rng() % 2000);
    for (int k = 0; k < n && t < horizon; ++k) {
      const DurationMs dur = 1 + static_cast<DurationMs>(rng() % 4000);
      const TimeMs end = std::min<TimeMs>(t + dur, horizon);
      if (t < end) transfers.add(t, end);
      t = end + static_cast<TimeMs>(rng() % 20000);
    }
    const RadioPowerParams& p = params[iter % params.size()];
    const std::string context = "iter " + std::to_string(iter);
    expect_matches_reference(transfers, p, horizon, nullptr, context);

    // Allowed set: the transfers themselves plus random extra windows,
    // so tails are cut at random boundaries.
    RadioTimeline timeline(horizon);
    timeline.allow(transfers);
    for (const Interval& iv : transfers.intervals()) {
      timeline.allow(iv.begin, iv.end + static_cast<DurationMs>(
                                             rng() % 30000));
    }
    for (int w = 0; w < 4; ++w) {
      const TimeMs b = static_cast<TimeMs>(rng() % horizon);
      timeline.allow(b, b + static_cast<DurationMs>(rng() % 10000));
    }
    const IntervalSet allowed = std::move(timeline).build();
    expect_matches_reference(transfers, p, horizon, &allowed,
                             context + "+allowed");
  }
}

/// A random generalized model: 1–4 tail tiers with monotone
/// non-increasing powers, random (possibly zero) durations and
/// promotion costs, and an association cost on about a third of the
/// draws — the full descriptive space the N-tier machine admits, well
/// beyond the two-tail instantiations in param_suite().
RadioModel random_model(std::mt19937_64& rng) {
  RadioModel m;
  m.idle_mw = static_cast<double>(rng() % 30);
  m.active_mw = 400.0 + static_cast<double>(rng() % 1400);
  m.promo_mw = 100.0 + static_cast<double>(rng() % 800);
  m.promo_idle_ms = static_cast<DurationMs>(rng() % 3000);
  if (rng() % 3 == 0) {
    m.assoc_mw = 100.0 + static_cast<double>(rng() % 600);
    m.assoc_ms = static_cast<DurationMs>(rng() % 4000);
  } else {
    m.assoc_mw = 0.0;
    m.assoc_ms = 0;
  }
  m.num_tails = 1 + rng() % kMaxRadioTiers;
  double power = m.active_mw;
  for (std::size_t tier = 0; tier < m.num_tails; ++tier) {
    // Keep the chain non-increasing; tier 0 may sit at active power
    // (the WCDMA shape) and any tier may have a zero-length window.
    power -= static_cast<double>(rng() % 300);
    if (power < 1.0) power = 1.0;
    m.tails[tier].power_mw = power;
    m.tails[tier].duration_ms = static_cast<DurationMs>(rng() % 15000);
    m.tails[tier].promo_ms =
        tier == 0 ? 0 : static_cast<DurationMs>(rng() % 2000);
  }
  m.validate();
  return m;
}

TEST(AccountColumns, ZeroLengthTailTiersDegenerate) {
  // Every tail window empty: the connected period is exactly
  // promo + active, and any gap re-promotes from idle. The vectorized
  // tier scan must not divide the zero-width windows into spurious
  // residency or misclassify the promotion tier.
  RadioModel m = RadioModel::nr_cdrx();
  for (std::size_t tier = 0; tier < m.num_tails; ++tier) {
    m.tails[tier].duration_ms = 0;
  }
  m.validate();
  IntervalSet transfers;
  transfers.add(0, 1000);
  transfers.add(1500, 2500);   // past the (empty) tails: cold again
  transfers.add(2500, 3000);   // merged with the previous transfer
  expect_matches_reference(transfers, m, 100000, nullptr, "zero-tails");
  const RadioAccounting acc = account_transfers(transfers, m, 100000);
  EXPECT_EQ(acc.tail_dch_ms(), 0);
  EXPECT_EQ(acc.promotions, 2);

  // Middle tier empty, outer tiers live: the boundary scan must skip
  // the zero-width tier without charging its promotion.
  RadioModel hollow = RadioModel::nr_cdrx();
  hollow.tails[1].duration_ms = 0;
  hollow.validate();
  IntervalSet probes;
  TimeMs t = 0;
  for (int k = 0; k < 12; ++k) {
    probes.add(t, t + 400);
    t += 400 + 100 + 1000 * k;  // gaps sweep across the tier edges
  }
  expect_matches_reference(probes, hollow, 200000, nullptr, "hollow-tier");
}

TEST(AccountColumns, FuzzMatchesReferenceOnRandomTierModels) {
  std::mt19937_64 rng(20260809);
  for (int iter = 0; iter < 400; ++iter) {
    const RadioModel model = random_model(rng);
    const TimeMs horizon = 50000 + static_cast<TimeMs>(rng() % 200000);
    const int n = static_cast<int>(rng() % 40);
    IntervalSet transfers;
    TimeMs t = static_cast<TimeMs>(rng() % 2000);
    for (int k = 0; k < n && t < horizon; ++k) {
      const DurationMs dur = 1 + static_cast<DurationMs>(rng() % 4000);
      const TimeMs end = std::min<TimeMs>(t + dur, horizon);
      if (t < end) transfers.add(t, end);
      t = end + static_cast<TimeMs>(rng() % 25000);
    }
    const std::string context = "tier-model iter " + std::to_string(iter);
    expect_matches_reference(transfers, model, horizon, nullptr, context);

    RadioTimeline timeline(horizon);
    timeline.allow(transfers);
    for (const Interval& iv : transfers.intervals()) {
      timeline.allow(iv.begin, iv.end + static_cast<DurationMs>(
                                             rng() % 30000));
    }
    for (int w = 0; w < 4; ++w) {
      const TimeMs b = static_cast<TimeMs>(rng() % horizon);
      timeline.allow(b, b + static_cast<DurationMs>(rng() % 10000));
    }
    const IntervalSet allowed = std::move(timeline).build();
    expect_matches_reference(transfers, model, horizon, &allowed,
                             context + "+allowed");
  }
}

TEST(AccountColumns, RejectsInvalidInputLikeReference) {
  const RadioPowerParams params = RadioPowerParams::wcdma();
  {
    IntervalSet past;  // extends beyond the horizon
    past.add(500, 2000);
    EXPECT_THROW(account_interval_set(past, params, 1000), Error);
    EXPECT_THROW(account_transfers(past, params, 1000), Error);
  }
  {
    IntervalSet transfers;  // outside the allowed set
    transfers.add(100, 200);
    transfers.add(5000, 6000);
    IntervalSet allowed;
    allowed.add(100, 200);
    EXPECT_THROW(account_interval_set(transfers, params, 10000, &allowed),
                 Error);
    EXPECT_THROW(account_transfers(transfers, params, 10000, &allowed),
                 Error);
  }
  {
    // Mismatched column lengths (the span entry point only).
    const std::vector<TimeMs> begins = {0, 100};
    const std::vector<TimeMs> ends = {50};
    EXPECT_THROW(account_columns(begins, ends, params, 1000), Error);
  }
}

}  // namespace
}  // namespace netmaster::engine
