// Tests for engine::RrcIntegrator, the streaming RRC accountant,
// against the transfer-by-transfer reference. Under a data switch the
// integrator takes the dormancy grace and the switch's other windows,
// and the reference the allowed set they stand for; the accountant's
// switched outcomes are tested in accounting_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "engine/radio_timeline.hpp"
#include "oracles/account_transfers.hpp"
#include "random_radio_model.hpp"

namespace netmaster::engine {
namespace {

using oracles::account_transfers;

/// Adds [begin, end) to `set`, clamped to [0, horizon): the switch
/// windows below lie within the accounting horizon.
void allow(IntervalSet& set, TimeMs begin, TimeMs end, TimeMs horizon) {
  set.add(std::max<TimeMs>(begin, 0), std::min(end, horizon));
}

/// A data switch as the accountant hands it to the integrator: each run
/// held open for `grace`, plus the canonical `windows`.
struct Switch {
  DurationMs grace = 0;
  IntervalSet windows;

  DataSwitch view() const { return {grace, windows.intervals()}; }

  /// The allowed set the reference integrates under: each run of
  /// `transfers` held open for the grace (clamped to the horizon), and
  /// the windows.
  IntervalSet allowed(const IntervalSet& transfers, TimeMs horizon) const {
    IntervalSet set = windows;
    for (const Interval& iv : transfers.intervals()) {
      allow(set, iv.begin, iv.end + grace, horizon);
    }
    return set;
  }
};

/// A random switch over `transfers`: a grace of 0 to 30 s, windows
/// stretching some runs' holds by up to 30 s (they touch or overlap
/// the hold), and a few windows anywhere, so tails are cut at random
/// boundaries.
Switch random_switch(std::mt19937_64& rng, const IntervalSet& transfers,
                     TimeMs horizon) {
  Switch sw;
  sw.grace = rng() % 4 == 0 ? 0 : static_cast<DurationMs>(rng() % 30000);
  for (const Interval& iv : transfers.intervals()) {
    if (rng() % 2 == 0) continue;
    const TimeMs from = std::min(iv.end + sw.grace, horizon);
    allow(sw.windows, from - static_cast<TimeMs>(rng() % 2) * (from - iv.end),
          from + static_cast<DurationMs>(rng() % 30000), horizon);
  }
  for (int w = 0; w < 4; ++w) {
    const TimeMs b = static_cast<TimeMs>(rng() % horizon);
    allow(sw.windows, b, b + static_cast<DurationMs>(rng() % 10000), horizon);
  }
  return sw;
}

// ---------------------------------------------------------------------------
// Differential tests: the streaming RRC integrator (RrcIntegrator, fed
// canonical sets through account_interval_set or raw in-order arrivals
// through add) against the reference transfer-by-transfer accountant
// (tests/oracles/account_transfers.hpp). The contract is bit-for-bit
// equality — every integer field AND the energy double — on every
// input, with the integrator deriving each cut from its chain and the
// reference reading it from the materialized allowed set.

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
  // Bitwise, not approximate: the integrator derives energy from the
  // same integer totals with the same expression.
  EXPECT_EQ(got.energy_j, want.energy_j) << context;
}

void expect_matches_reference(const IntervalSet& transfers,
                              const RadioModel& model,
                              TimeMs horizon,
                              const Switch* sw,
                              const std::string& context) {
  if (sw == nullptr) {
    expect_accounting_equal(
        account_interval_set(transfers, model, horizon),
        account_transfers(transfers, model, horizon), context);
    return;
  }
  const IntervalSet allowed = sw->allowed(transfers, horizon);
  const DataSwitch view = sw->view();
  expect_accounting_equal(
      account_interval_set(transfers, model, horizon, &view),
      account_transfers(transfers, model, horizon, &allowed), context);
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

TEST(RrcIntegrator, MatchesReferenceOnEdgeCases) {
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
      // With a switch cutting shortly after each transfer.
      const Switch sw{700, {}};
      expect_matches_reference(set, params, horizon, &sw, name + "+switch");
    }
  }
}

TEST(RrcIntegrator, FuzzMatchesReference) {
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
    const Switch sw = random_switch(rng, transfers, horizon);
    expect_matches_reference(transfers, p, horizon, &sw, context + "+switch");
  }
}

TEST(RrcIntegrator, ZeroLengthTailTiersDegenerate) {
  // Every tail window empty: the connected period is exactly
  // promo + active, and any gap re-promotes from idle. The tier scan
  // must not divide the zero-width windows into spurious
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

TEST(RrcIntegrator, FuzzMatchesReferenceOnRandomTierModels) {
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
    const Switch sw = random_switch(rng, transfers, horizon);
    expect_matches_reference(transfers, model, horizon, &sw,
                             context + "+switch");
  }
}

TEST(RrcIntegrator, RejectsInvalidInputLikeReference) {
  const RadioPowerParams params = RadioPowerParams::wcdma();
  {
    IntervalSet past;  // extends beyond the horizon
    past.add(500, 2000);
    EXPECT_THROW(account_interval_set(past, params, 1000), Error);
    EXPECT_THROW(account_transfers(past, params, 1000), Error);
  }
  {
    // A transfer outside the allowed set: the reference rejects it. The
    // integrator cannot be given one (every run opens the switch
    // itself); it rejects switch windows outside [0, horizon) and a
    // negative horizon instead.
    IntervalSet transfers;
    transfers.add(100, 200);
    transfers.add(5000, 6000);
    IntervalSet allowed;
    allowed.add(100, 200);
    EXPECT_THROW(account_transfers(transfers, params, 10000, &allowed),
                 Error);
    const std::vector<Interval> past = {{100, 200}, {9000, 10001}};
    const std::vector<Interval> before = {{-1, 200}};
    for (const DataSwitch& bad : {DataSwitch{0, past}, DataSwitch{0, before}}) {
      EXPECT_THROW(account_interval_set(transfers, params, 10000, &bad),
                   Error);
    }
    const DataSwitch none{0, {}};
    EXPECT_THROW(account_interval_set(IntervalSet{}, params, -1, &none), Error);
    const DataSwitch inside{0, allowed.intervals()};
    EXPECT_NO_THROW(account_interval_set(transfers, params, 10000, &inside));
  }
  {
    // In-order arrivals that coalesce into one run reaching past the
    // horizon: the run is checked whole, as the reference checks the
    // canonical interval.
    RrcIntegrator integrator(params, 1000);
    const std::vector<Interval> arrivals = {{100, 600}, {600, 1500}};
    EXPECT_EQ(integrator.add(arrivals), arrivals.size());
    EXPECT_THROW(integrator.finish(), Error);
    IntervalSet merged;
    merged.add(100, 1500);
    EXPECT_THROW(account_transfers(merged, params, 1000), Error);
  }
}

/// Random arrivals in start order: touching, overlapping, nested,
/// zero-length and gapped transfers (the canonical form is left to the
/// integrator), often more runs than one integration batch holds.
std::vector<Interval> random_arrivals(std::mt19937_64& rng, TimeMs horizon) {
  std::vector<Interval> out;
  const int n = static_cast<int>(rng() % 400);
  TimeMs t = static_cast<TimeMs>(rng() % 2000);
  for (int k = 0; k < n && t < horizon; ++k) {
    const DurationMs dur = static_cast<DurationMs>(rng() % 4000);
    out.push_back({t, std::min<TimeMs>(t + dur, horizon)});
    switch (rng() % 5) {
      case 0: break;                                 // same begin
      case 1: t += dur; break;                       // touching
      case 2: t += dur / 2; break;                   // overlapping
      default: t += dur + static_cast<TimeMs>(rng() % 25000);  // gap
    }
  }
  return out;
}

/// Feeds `arrivals` in a few random chunks (the open run and the batch
/// carry over between add calls); every arrival must be accepted.
void feed_in_chunks(RrcIntegrator& integrator,
                    std::span<const Interval> arrivals, std::mt19937_64& rng,
                    const std::string& context) {
  while (!arrivals.empty()) {
    const std::size_t chunk = 1 + rng() % arrivals.size();
    ASSERT_EQ(integrator.add(arrivals.first(chunk)), chunk) << context;
    arrivals = arrivals.subspan(chunk);
  }
}

TEST(RrcIntegrator, StreamedArrivalsMatchReference) {
  // Feeding raw in-order arrivals must equal the reference over their
  // canonical set: the integrator coalesces exactly as IntervalSet's
  // constructor does.
  std::mt19937_64 rng(20260810);
  std::size_t coalesced = 0;
  std::size_t longest = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const RadioModel model =
        iter % 2 == 0 ? random_model(rng)
                      : RadioModel(param_suite()[iter / 2 % 4]);
    const TimeMs horizon = 50000 + static_cast<TimeMs>(rng() % 5000000);
    const std::vector<Interval> arrivals = random_arrivals(rng, horizon);
    const IntervalSet canonical(arrivals);
    coalesced += arrivals.size() - canonical.size();
    longest = std::max(longest, canonical.size());
    const std::string context = "streamed iter " + std::to_string(iter);

    RrcIntegrator stock(model, horizon);
    feed_in_chunks(stock, arrivals, rng, context);
    expect_accounting_equal(stock.finish(),
                            account_transfers(canonical, model, horizon),
                            context);

    const Switch sw = random_switch(rng, canonical, horizon);
    const IntervalSet allowed = sw.allowed(canonical, horizon);
    const DataSwitch view = sw.view();
    RrcIntegrator switched(model, horizon, &view);
    feed_in_chunks(switched, arrivals, rng, context + "+switch");
    expect_accounting_equal(
        switched.finish(),
        account_transfers(canonical, model, horizon, &allowed),
        context + "+switch");
  }
  EXPECT_GT(coalesced, 0u);  // the arrivals really were non-canonical
  EXPECT_GT(longest, 128u);  // and filled several 64-run batches
}

TEST(RrcIntegrator, RefusesAnArrivalBeforeTheOpenRun) {
  // An out-of-order arrival is refused and feeds nothing: the result is
  // the reference over the accepted arrivals alone.
  const RadioModel model = RadioModel::wcdma();
  RrcIntegrator integrator(model, 100000);
  const std::vector<Interval> arrivals = {
      {1000, 2000},
      {30000, 31000},
      {30500, 30600},  // inside the open run
      {40000, 40000},  // empty: ignored
      {20000, 21000},  // before the open run: refused
      {50000, 52000},
  };
  EXPECT_EQ(integrator.add(arrivals), 4u);
  EXPECT_EQ(integrator.add(std::span(arrivals).subspan(5)), 1u);
  IntervalSet accepted;
  accepted.add(1000, 2000);
  accepted.add(30000, 31000);
  accepted.add(50000, 52000);
  expect_accounting_equal(integrator.finish(),
                          account_transfers(accepted, model, 100000),
                          "refused arrival");
}

TEST(RrcIntegrator, CoalescesTouchingArrivalsBeforeHoldingThem) {
  // Touching arrivals form one canonical run, and the switch holds that
  // run, as in the reference: [2000, 3000) joins [1000, 2000), so the
  // hold runs from 3000, not from 2000 (where the window at its begin
  // alone would have cut it).
  const RadioModel model = RadioModel::wcdma();
  const Switch sw{0, [] {
                    IntervalSet w;
                    w.add(1000, 1001);
                    return w;
                  }()};
  const DataSwitch view = sw.view();
  RrcIntegrator integrator(model, 100000, &view);
  const std::vector<Interval> arrivals = {{1000, 2000}, {2000, 3000}};
  EXPECT_EQ(integrator.add(arrivals), 2u);
  IntervalSet canonical;
  canonical.add(1000, 3000);
  const IntervalSet allowed = sw.allowed(canonical, 100000);
  expect_accounting_equal(
      integrator.finish(),
      account_transfers(canonical, model, 100000, &allowed), "touching");
}

}  // namespace
}  // namespace netmaster::engine
