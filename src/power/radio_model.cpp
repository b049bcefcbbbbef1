#include "power/radio_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace netmaster {

namespace {

/// mW * ms -> joules.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
}

}  // namespace

RadioPowerParams RadioPowerParams::wcdma() { return RadioPowerParams{}; }

RadioPowerParams RadioPowerParams::lte() {
  RadioPowerParams p;
  p.idle_mw = 11.0;
  p.fach_mw = 1060.0;   // short-DRX tail power
  p.dch_mw = 1210.0;    // RRC_CONNECTED continuous reception
  p.promo_mw = 1210.0;
  p.promo_idle_ms = 260;
  p.promo_fach_ms = 0;  // DRX -> active needs no RRC promotion
  p.dch_tail_ms = 200;  // continuous-reception inactivity timer
  p.fach_tail_ms = 11400;  // DRX tail before RRC_IDLE
  return p;
}

void RadioPowerParams::validate() const {
  NM_REQUIRE(idle_mw >= 0 && fach_mw >= 0 && dch_mw >= 0 && promo_mw >= 0,
             "power levels must be non-negative");
  NM_REQUIRE(promo_idle_ms >= 0 && promo_fach_ms >= 0,
             "promotion delays must be non-negative");
  NM_REQUIRE(dch_tail_ms >= 0 && fach_tail_ms >= 0,
             "tail timers must be non-negative");
}

RadioModel::RadioModel(const RadioPowerParams& params) {
  idle_mw = params.idle_mw;
  active_mw = params.dch_mw;
  promo_mw = params.promo_mw;
  promo_idle_ms = params.promo_idle_ms;
  assoc_mw = 0.0;
  assoc_ms = 0;
  tails[0] = TailTier{params.dch_mw, params.dch_tail_ms, 0};
  tails[1] = TailTier{params.fach_mw, params.fach_tail_ms,
                      params.promo_fach_ms};
  tails[2] = TailTier{};
  tails[3] = TailTier{};
  num_tails = 2;
}

RadioModel RadioModel::wcdma() { return RadioModel(RadioPowerParams::wcdma()); }

RadioModel RadioModel::lte_cdrx() {
  return RadioModel(RadioPowerParams::lte());
}

RadioModel RadioModel::nr_cdrx() {
  // 5G NR numbers in the spirit of the 3GPP CDRX power studies: hot
  // connected state, then inactivity -> short DRX -> long DRX before
  // RRC_IDLE, each tier cheaper and slower to wake from than the last.
  RadioModel m;
  m.idle_mw = 15.0;
  m.active_mw = 1650.0;
  m.promo_mw = 1650.0;
  m.promo_idle_ms = 120;
  m.assoc_mw = 0.0;
  m.assoc_ms = 0;
  m.tails[0] = TailTier{1650.0, 100, 0};    // inactivity timer
  m.tails[1] = TailTier{1100.0, 2000, 5};   // short-cycle DRX
  m.tails[2] = TailTier{700.0, 8000, 25};   // long-cycle DRX
  m.tails[3] = TailTier{};
  m.num_tails = 3;
  return m;
}

RadioModel RadioModel::wifi() {
  // Wi-Fi PSM: the active state is far cheaper per millisecond than
  // cellular, the tail is a short PSM-exit linger, but a cold attach
  // pays a scan + associate burst before any data moves.
  RadioModel m;
  m.idle_mw = 10.0;
  m.active_mw = 350.0;
  m.promo_mw = 300.0;
  m.promo_idle_ms = 80;
  m.assoc_mw = 500.0;
  m.assoc_ms = 2500;
  m.tails[0] = TailTier{280.0, 200, 0};  // PSM-exit linger
  m.tails[1] = TailTier{};
  m.tails[2] = TailTier{};
  m.tails[3] = TailTier{};
  m.num_tails = 1;
  return m;
}

void RadioModel::validate() const {
  NM_REQUIRE(std::isfinite(idle_mw) && std::isfinite(active_mw) &&
                 std::isfinite(promo_mw) && std::isfinite(assoc_mw),
             "radio model powers must be finite");
  NM_REQUIRE(idle_mw >= 0 && active_mw >= 0 && promo_mw >= 0 && assoc_mw >= 0,
             "radio model powers must be non-negative");
  NM_REQUIRE(promo_idle_ms >= 0, "promotion delay must be non-negative");
  NM_REQUIRE(assoc_ms >= 0, "association time must be non-negative");
  NM_REQUIRE(num_tails <= kMaxRadioTiers,
             "tail chain exceeds kMaxRadioTiers");
  double prev_mw = active_mw;
  for (std::size_t i = 0; i < num_tails; ++i) {
    const TailTier& tier = tails[i];
    NM_REQUIRE(std::isfinite(tier.power_mw),
               "tail tier power must be finite");
    NM_REQUIRE(tier.power_mw >= 0, "tail tier power must be non-negative");
    NM_REQUIRE(tier.duration_ms >= 0,
               "tail tier duration must be non-negative");
    NM_REQUIRE(tier.promo_ms >= 0,
               "tail tier promotion delay must be non-negative");
    NM_REQUIRE(tier.power_mw <= prev_mw,
               "tail chain power must be non-increasing");
    prev_mw = tier.power_mw;
  }
}

double isolated_activity_energy(DurationMs transfer_ms,
                                const RadioModel& model) {
  NM_REQUIRE(transfer_ms >= 0, "transfer duration must be non-negative");
  double energy = energy_joules(model.assoc_mw, model.assoc_ms) +
                  energy_joules(model.promo_mw, model.promo_idle_ms);
  // When the first tail tier runs at connected power (the WCDMA DCH
  // tail), fold it into the active term as one multiply — this is the
  // exact historical expression, kept bit-for-bit.
  std::size_t first = 0;
  if (model.num_tails > 0 && model.tails[0].power_mw == model.active_mw) {
    energy += energy_joules(model.active_mw,
                            transfer_ms + model.tails[0].duration_ms);
    first = 1;
  } else {
    energy += energy_joules(model.active_mw, transfer_ms);
  }
  for (std::size_t i = first; i < model.num_tails; ++i) {
    energy += energy_joules(model.tails[i].power_mw,
                            model.tails[i].duration_ms);
  }
  return energy;
}

double piggybacked_activity_energy(DurationMs transfer_ms,
                                   const RadioModel& model) {
  NM_REQUIRE(transfer_ms >= 0, "transfer duration must be non-negative");
  return energy_joules(model.active_mw, transfer_ms);
}

}  // namespace netmaster
