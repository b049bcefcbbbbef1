// Tests for the RRC radio power model — hand-computed trajectories plus
// monotonicity / aggregation properties, integrated by the reference
// accountant (tests/oracles/account_transfers.hpp).
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/account_transfers.hpp"
#include "power/radio_model.hpp"

namespace netmaster {
namespace {

using oracles::account_transfers;

constexpr TimeMs kHorizon = 10 * kMsPerMinute;

RadioPowerParams wcdma() { return RadioPowerParams::wcdma(); }

double joules(double mw, DurationMs ms) { return mw * ms * 1e-6; }

TEST(RadioParams, Validate) {
  EXPECT_NO_THROW(wcdma().validate());
  EXPECT_NO_THROW(RadioPowerParams::lte().validate());
  RadioPowerParams bad = wcdma();
  bad.dch_mw = -1.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = wcdma();
  bad.dch_tail_ms = -5;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(RadioModel, SingleIsolatedTransfer) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  transfers.add(10'000, 14'000);  // 4 s transfer
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  EXPECT_EQ(acc.promotions, 1);
  EXPECT_EQ(acc.promo_ms, p.promo_idle_ms);
  EXPECT_EQ(acc.active_ms, 4000);
  EXPECT_EQ(acc.tail_dch_ms(), p.dch_tail_ms);
  EXPECT_EQ(acc.tail_fach_ms(), p.fach_tail_ms);
  EXPECT_EQ(acc.radio_on_ms,
            p.promo_idle_ms + 4000 + p.dch_tail_ms + p.fach_tail_ms);
  const double expected =
      joules(p.promo_mw, p.promo_idle_ms) +
      joules(p.dch_mw, 4000 + p.dch_tail_ms) +
      joules(p.fach_mw, p.fach_tail_ms);
  EXPECT_NEAR(acc.energy_j, expected, 1e-9);
  // And it equals the closed-form g function.
  EXPECT_NEAR(acc.energy_j, isolated_activity_energy(4000, p), 1e-9);
}

TEST(RadioModel, TailClippedAtHorizon) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  // Connected (incl. the 2 s promotion shift) until horizon − 2 s, so
  // only 2 s of DCH tail fit before the accounting window closes.
  transfers.add(kHorizon - 6000, kHorizon - 4000);
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  EXPECT_EQ(acc.tail_dch_ms(), 2000);
  EXPECT_EQ(acc.tail_fach_ms(), 0);
}

TEST(RadioModel, SecondTransferInDchTailNoPromotion) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  transfers.add(10'000, 12'000);
  // Connected until 12'000 + promo shift 2'000 = 14'000; arrive 2 s
  // later, inside the 5 s DCH tail.
  transfers.add(16'000, 18'000);
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  EXPECT_EQ(acc.promotions, 1);
  EXPECT_EQ(acc.tail_dch_ms(), 2000 + p.dch_tail_ms);  // inter + trailing
}

TEST(RadioModel, SecondTransferInFachTailFachPromotion) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  transfers.add(10'000, 12'000);  // connected until 14'000
  transfers.add(22'000, 24'000);  // 8 s gap: past DCH tail (5 s), in FACH
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  EXPECT_EQ(acc.promotions, 2);
  EXPECT_EQ(acc.promo_ms, p.promo_idle_ms + p.promo_fach_ms);
  // Inter-transfer tails: full DCH tail + 3 s FACH.
  EXPECT_EQ(acc.tail_dch_ms(), p.dch_tail_ms + p.dch_tail_ms);
  EXPECT_EQ(acc.tail_fach_ms(), 3000 + p.fach_tail_ms);
}

TEST(RadioModel, FarApartTransfersTwoColdPromotions) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  transfers.add(10'000, 12'000);
  transfers.add(100'000, 102'000);
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  EXPECT_EQ(acc.promotions, 2);
  EXPECT_EQ(acc.promo_ms, 2 * p.promo_idle_ms);
  EXPECT_EQ(acc.tail_dch_ms(), 2 * p.dch_tail_ms);
  EXPECT_EQ(acc.tail_fach_ms(), 2 * p.fach_tail_ms);
}

TEST(RadioModel, OverlappingBusyExtends) {
  const RadioPowerParams p = wcdma();
  // A transfer arriving during the promotion shift of the previous one
  // extends the connected period without another promotion.
  IntervalSet transfers;
  transfers.add(10'000, 12'000);
  transfers.add(13'000, 15'000);  // 13'000 < connected_until (14'000)
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  EXPECT_EQ(acc.promotions, 1);
  EXPECT_EQ(acc.active_ms, 4000);
}

TEST(RadioModel, EmptyTransferSet) {
  const RadioAccounting acc =
      account_transfers(IntervalSet{}, wcdma(), kHorizon);
  EXPECT_EQ(acc.energy_j, 0.0);
  EXPECT_EQ(acc.radio_on_ms, 0);
  EXPECT_EQ(acc.promotions, 0);
}

TEST(RadioModel, TransferBeyondHorizonThrows) {
  IntervalSet transfers;
  transfers.add(kHorizon - 10, kHorizon + 10);
  EXPECT_THROW(account_transfers(transfers, wcdma(), kHorizon), Error);
}

TEST(RadioModel, AllowedSetCutsTail) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  transfers.add(10'000, 14'000);
  // Connected (incl. the 2 s promotion shift) until 16'000; the switch
  // allows 3 s beyond that, so only 3 s of DCH tail survive.
  IntervalSet allowed;
  allowed.add(10'000, 19'000);
  const RadioAccounting acc =
      account_transfers(transfers, p, kHorizon, &allowed);
  EXPECT_EQ(acc.tail_dch_ms(), 3000);
  EXPECT_EQ(acc.tail_fach_ms(), 0);
}

TEST(RadioModel, AllowedSetForcesColdPromotionAfterCut) {
  const RadioPowerParams p = wcdma();
  IntervalSet transfers;
  transfers.add(10'000, 12'000);  // connected until 14'000
  transfers.add(16'000, 18'000);  // would be in DCH tail...
  IntervalSet allowed;
  allowed.add(10'000, 14'000);  // ...but the switch cut at 14'000
  allowed.add(16'000, 18'000);
  const RadioAccounting acc =
      account_transfers(transfers, p, kHorizon, &allowed);
  EXPECT_EQ(acc.promotions, 2);
  EXPECT_EQ(acc.promo_ms, 2 * p.promo_idle_ms);
  EXPECT_EQ(acc.tail_dch_ms(), 0);
  EXPECT_EQ(acc.tail_fach_ms(), 0);
}

TEST(RadioModel, TransferOutsideAllowedSetThrows) {
  IntervalSet transfers;
  transfers.add(10'000, 12'000);
  IntervalSet allowed;
  allowed.add(50'000, 60'000);
  EXPECT_THROW(
      account_transfers(transfers, wcdma(), kHorizon, &allowed), Error);
}

TEST(RadioModel, PiggybackedCheaperThanIsolated) {
  const RadioPowerParams p = wcdma();
  for (DurationMs d : {0, 500, 5000, 60'000}) {
    EXPECT_LT(piggybacked_activity_energy(d, p),
              isolated_activity_energy(d, p));
  }
  EXPECT_THROW(isolated_activity_energy(-1, p), Error);
  EXPECT_THROW(piggybacked_activity_energy(-1, p), Error);
}

TEST(RadioModel, LteProfileShape) {
  const RadioPowerParams lte = RadioPowerParams::lte();
  // LTE promotes much faster but burns more in the connected state.
  EXPECT_LT(lte.promo_idle_ms, wcdma().promo_idle_ms);
  EXPECT_GT(lte.dch_mw, wcdma().dch_mw);
  IntervalSet transfers;
  transfers.add(10'000, 14'000);
  const RadioAccounting acc = account_transfers(transfers, lte, kHorizon);
  EXPECT_GT(acc.energy_j, 0.0);
}

// Property suite over random transfer sets.
class RadioModelProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  IntervalSet random_transfers(Rng& rng, int count) {
    IntervalSet set;
    for (int i = 0; i < count; ++i) {
      const TimeMs start = rng.uniform_int(0, kHorizon - 20'000);
      set.add(start, start + rng.uniform_int(500, 15'000));
    }
    return set;
  }
};

TEST_P(RadioModelProperty, MoreTrafficNeverCheaper) {
  Rng rng(GetParam());
  const IntervalSet base = random_transfers(rng, 5);
  IntervalSet more = base;
  more.add(random_transfers(rng, 3));
  const RadioPowerParams p = wcdma();
  const double e_base = account_transfers(base, p, kHorizon).energy_j;
  const double e_more = account_transfers(more, p, kHorizon).energy_j;
  EXPECT_GE(e_more, e_base - 1e-9);
}

TEST_P(RadioModelProperty, MergingTransfersNeverCostsMore) {
  Rng rng(GetParam());
  // Spread: k isolated transfers far apart. Merged: the same total
  // active time back to back.
  const int k = 4;
  const DurationMs dur = rng.uniform_int(1000, 8000);
  IntervalSet spread, merged;
  for (int i = 0; i < k; ++i) {
    const TimeMs start = 60'000 * (i + 1);
    spread.add(start, start + dur);
    merged.add(60'000 + i * dur, 60'000 + (i + 1) * dur);
  }
  const RadioPowerParams p = wcdma();
  EXPECT_LE(account_transfers(merged, p, kHorizon).energy_j,
            account_transfers(spread, p, kHorizon).energy_j + 1e-9);
}

TEST_P(RadioModelProperty, AllowedSetNeverIncreasesEnergy) {
  Rng rng(GetParam());
  const IntervalSet transfers = random_transfers(rng, 6);
  IntervalSet allowed = transfers;  // exact cut after every transfer
  const RadioPowerParams p = wcdma();
  const double unrestricted =
      account_transfers(transfers, p, kHorizon).energy_j;
  const double cut =
      account_transfers(transfers, p, kHorizon, &allowed).energy_j;
  EXPECT_LE(cut, unrestricted + 1e-9);
}

TEST_P(RadioModelProperty, EnergyMatchesTimeBreakdown) {
  Rng rng(GetParam());
  const IntervalSet transfers = random_transfers(rng, 6);
  const RadioPowerParams p = wcdma();
  const RadioAccounting acc = account_transfers(transfers, p, kHorizon);
  const double expected =
      joules(p.dch_mw, acc.active_ms + acc.tail_dch_ms()) +
      joules(p.fach_mw, acc.tail_fach_ms()) +
      joules(p.promo_mw, acc.promo_ms);
  EXPECT_NEAR(acc.energy_j, expected, 1e-9);
  EXPECT_EQ(acc.radio_on_ms, acc.active_ms + acc.tail_dch_ms() +
                                 acc.tail_fach_ms() + acc.promo_ms);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, RadioModelProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Generalized N-tier RadioModel ----

TEST(RadioModelGeneralized, FactoryProfilesValidate) {
  EXPECT_NO_THROW(RadioModel::wcdma().validate());
  EXPECT_NO_THROW(RadioModel::lte_cdrx().validate());
  EXPECT_NO_THROW(RadioModel::nr_cdrx().validate());
  EXPECT_NO_THROW(RadioModel::wifi().validate());
  EXPECT_NO_THROW(RadioModel(wcdma()).validate());
}

TEST(RadioModelGeneralized, ValidateRejectsBadModels) {
  RadioModel m = RadioModel::wifi();
  m.active_mw = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::wifi();
  m.assoc_mw = std::numeric_limits<double>::infinity();
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::wifi();
  m.assoc_ms = -1;
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::nr_cdrx();
  m.tails[1].duration_ms = -5;
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::nr_cdrx();
  m.tails[1].promo_ms = -1;
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::nr_cdrx();
  m.tails[1].power_mw = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.validate(), Error);

  // Non-monotone chains: a tail above the active power, and a tier
  // hotter than its predecessor.
  m = RadioModel::nr_cdrx();
  m.tails[0].power_mw = m.active_mw + 1.0;
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::nr_cdrx();
  m.tails[2].power_mw = m.tails[1].power_mw + 1.0;
  EXPECT_THROW(m.validate(), Error);

  m = RadioModel::nr_cdrx();
  m.num_tails = kMaxRadioTiers + 1;
  EXPECT_THROW(m.validate(), Error);
}

TEST(RadioModelGeneralized, TwoTailProfileBitIdenticalToLegacyFormula) {
  // The generalized accountant must reproduce the historical two-tail
  // energy expression *bitwise*, not just to a tolerance — this is the
  // contract that keeps every WCDMA golden in the repo unchanged.
  const RadioPowerParams p = wcdma();
  const RadioModel m = RadioModel::wcdma();
  EXPECT_EQ(m.probe_mw(), p.fach_mw);
  EXPECT_EQ(m.total_tail_ms(), p.total_tail_ms());
  for (DurationMs d : {0, 1, 777, 4000, 60'000}) {
    const double legacy =
        joules(p.promo_mw, p.promo_idle_ms) +
        joules(p.dch_mw, d + p.dch_tail_ms) +
        joules(p.fach_mw, p.fach_tail_ms);
    EXPECT_EQ(isolated_activity_energy(d, m), legacy);
    EXPECT_EQ(isolated_activity_energy(d, p), legacy);
  }
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    IntervalSet transfers;
    for (int i = 0; i < 6; ++i) {
      const TimeMs start = rng.uniform_int(0, kHorizon - 20'000);
      transfers.add(start, start + rng.uniform_int(500, 15'000));
    }
    const RadioAccounting a = account_transfers(transfers, p, kHorizon);
    const RadioAccounting b = account_transfers(transfers, m, kHorizon);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.radio_on_ms, b.radio_on_ms);
    EXPECT_EQ(a.assoc_ms, 0);
    EXPECT_EQ(a.associations, 0);
    EXPECT_EQ(a.tail_tier_ms[2], 0);
    EXPECT_EQ(a.tail_tier_ms[3], 0);
  }
}

TEST(RadioModelGeneralized, WifiColdAttachPaysAssociation) {
  const RadioModel w = RadioModel::wifi();
  IntervalSet transfers;
  transfers.add(10'000, 14'000);
  const RadioAccounting acc = account_transfers(transfers, w, kHorizon);
  EXPECT_EQ(acc.associations, 1);
  EXPECT_EQ(acc.assoc_ms, w.assoc_ms);
  EXPECT_EQ(acc.promotions, 1);
  EXPECT_EQ(acc.promo_ms, w.promo_idle_ms);
  EXPECT_EQ(acc.active_ms, 4000);
  EXPECT_EQ(acc.tail_dch_ms(), w.tails[0].duration_ms);
  EXPECT_EQ(acc.radio_on_ms, w.assoc_ms + w.promo_idle_ms + 4000 +
                                 w.tails[0].duration_ms);
  const double expected = joules(w.active_mw, 4000) +
                          joules(w.tails[0].power_mw,
                                 w.tails[0].duration_ms) +
                          joules(w.promo_mw, w.promo_idle_ms) +
                          joules(w.assoc_mw, w.assoc_ms);
  EXPECT_EQ(acc.energy_j, expected);
  EXPECT_EQ(isolated_activity_energy(4000, w), expected);
}

TEST(RadioModelGeneralized, WifiWarmReuseSkipsAssociation) {
  const RadioModel w = RadioModel::wifi();
  IntervalSet transfers;
  transfers.add(10'000, 12'000);
  // connected until 12'000 + assoc 2'500 + promo 80 = 14'580; arrive
  // 100 ms into the 200 ms PSM tail: no second association.
  transfers.add(14'680, 15'680);
  RadioAccounting acc = account_transfers(transfers, w, kHorizon);
  EXPECT_EQ(acc.associations, 1);
  // Far apart: past the PSM tail, a second cold attach.
  transfers.add(200'000, 201'000);
  acc = account_transfers(transfers, w, kHorizon);
  EXPECT_EQ(acc.associations, 2);
  EXPECT_EQ(acc.assoc_ms, 2 * w.assoc_ms);
}

TEST(RadioModelGeneralized, NrTierPromotionsFollowTheChain) {
  const RadioModel nr = RadioModel::nr_cdrx();
  ASSERT_EQ(nr.num_tails, 3u);
  // One transfer per tier of the inactivity chain, placed by its gap
  // from the previous connected period's end.
  IntervalSet transfers;
  transfers.add(10'000, 11'000);  // cold: promo 120, connected 11'120
  transfers.add(11'170, 12'170);  // gap 50 < 100: tier 0, promo 0
  // connected until 12'170; gap 1'000 lands in tier 1 (100..2'100).
  transfers.add(13'170, 14'170);  // tier 1: promo 5, connected 14'175
  // gap 5'000 lands in tier 2 (2'100..10'100).
  transfers.add(19'175, 20'175);  // tier 2: promo 25
  const RadioAccounting acc = account_transfers(transfers, nr, kHorizon);
  EXPECT_EQ(acc.promo_ms, nr.promo_idle_ms + 0 + nr.tails[1].promo_ms +
                              nr.tails[2].promo_ms);
  // Tier-0 re-entry is free (promo 0), so only three *paid* promotions.
  EXPECT_EQ(acc.promotions, 3);
  EXPECT_EQ(acc.associations, 0);
}

TEST(RadioModelGeneralized, ProbePowerFallsBackToActive) {
  RadioModel m = RadioModel::wifi();
  EXPECT_EQ(m.probe_mw(), m.tails[0].power_mw);
  m.num_tails = 0;
  EXPECT_EQ(m.probe_mw(), m.active_mw);
}

TEST(RadioModelGeneralized, RadioSetValidatesBothInterfaces) {
  RadioSet set;
  EXPECT_NO_THROW(set.validate());
  EXPECT_EQ(&set.model(RadioId::kCellular), &set.cellular);
  EXPECT_EQ(&set.model(RadioId::kWifi), &set.wifi);
  set.wifi.assoc_ms = -1;
  EXPECT_THROW(set.validate(), Error);
}

}  // namespace
}  // namespace netmaster
