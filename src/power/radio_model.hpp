// Radio power models.
//
// Radio energy on cellular is dominated by RRC state residency, not by
// the bits moved: a transfer promotes the radio to the high-power
// connected state (DCH on WCDMA), and after the transfer the radio
// lingers in high-power "tail" states (DCH tail, then FACH) before
// demoting to IDLE. The paper's energy function g(t) is exactly this
// model, with parameters taken from Huang et al. (MobiSys'12) and Qian
// et al.
//
// The machine is described, not hardwired: `RadioModel` is an N-tier
// state machine — a connected/active state, an ordered chain of up to
// `kMaxRadioTiers` inactivity-tail tiers (each with its own power,
// duration, and re-promotion delay when a transfer arrives inside it),
// a cold IDLE->connected promotion, and an optional association cost
// charged per cold attach (Wi-Fi scan/associate). The historical
// `RadioPowerParams` (WCDMA IDLE/FACH/DCH) is a two-tail instantiation
// and converts implicitly, so the paper profile and all its goldens are
// unchanged. Factory profiles cover WCDMA, LTE CDRX, NR CDRX, and
// Wi-Fi PSM.
//
// engine::RrcIntegrator (engine/radio_timeline.hpp) integrates state
// power over the trajectory a stream of transfer intervals induces — the
// single source of truth for radio energy and radio-on time across the
// simulator and the oracle baseline; the scheduler's profit model uses
// the closed forms below.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/interval.hpp"
#include "common/time.hpp"

namespace netmaster {

/// Which physical radio interface a transfer (or scheduler slot) runs
/// on. The co-scheduler assigns each transfer one of these along with
/// its time; accounting keeps an independent state machine per radio.
enum class RadioId : std::uint8_t { kCellular = 0, kWifi = 1 };

/// Maximum inactivity-tail tiers a RadioModel may chain. Four covers
/// every profile in the literature (NR CDRX: inactivity + short DRX +
/// long DRX + release tail) and keeps RadioAccounting a flat struct.
constexpr std::size_t kMaxRadioTiers = 4;

/// One tier of the ordered inactivity-tail chain. After the connected
/// period ends the radio dwells `duration_ms` at `power_mw`, then falls
/// to the next tier (or IDLE after the last). A transfer arriving while
/// the radio is inside this tier pays `promo_ms` to re-promote.
struct TailTier {
  double power_mw = 0.0;
  DurationMs duration_ms = 0;
  DurationMs promo_ms = 0;
};

/// Parameters of the two-tail WCDMA-style power model. Powers are
/// milliwatts; durations are milliseconds. Kept as the compact paper
/// parameterisation; converts implicitly to the generalized RadioModel
/// (tail 0 = DCH tail, tail 1 = FACH tail).
struct RadioPowerParams {
  double idle_mw = 0.0;    ///< radio share while fully idle
  double fach_mw = 460.0;  ///< low-speed shared-channel / short-DRX power
  double dch_mw = 800.0;   ///< dedicated-channel / connected power
  double promo_mw = 550.0; ///< power during state promotion

  DurationMs promo_idle_ms = 2000;  ///< IDLE -> DCH promotion delay
  DurationMs promo_fach_ms = 1500;  ///< FACH -> DCH promotion delay
  DurationMs dch_tail_ms = 5000;    ///< DCH inactivity timer (tail 1)
  DurationMs fach_tail_ms = 12000;  ///< FACH inactivity timer (tail 2)

  /// China-Unicom-style WCDMA profile (the paper's testbed carrier).
  static RadioPowerParams wcdma();
  /// LTE profile mapped onto the two-tail machine: fast promotion,
  /// single long high-power tail, short low-power DRX tail.
  static RadioPowerParams lte();

  /// Total tail window after the last transfer before reaching IDLE.
  DurationMs total_tail_ms() const { return dch_tail_ms + fach_tail_ms; }

  /// Throws netmaster::Error when any parameter is out of domain.
  void validate() const;
};

/// Descriptive N-tier radio power model: connected/active power, a cold
/// IDLE promotion, an ordered inactivity-tail chain, and an optional
/// association cost paid on every cold attach (Wi-Fi scan + associate;
/// zero for cellular). Default-constructed it is the WCDMA profile; the
/// factories below name the others.
struct RadioModel {
  double idle_mw = 0.0;     ///< radio share while fully idle
  double active_mw = 800.0; ///< connected power while moving data
  double promo_mw = 550.0;  ///< power during promotions and association
  DurationMs promo_idle_ms = 2000;  ///< IDLE -> connected promotion delay

  /// Association cost charged once per cold attach, before the IDLE
  /// promotion (Wi-Fi scan/associate; 0 disables — cellular stays
  /// camped on the network, so attach is just the RRC promotion).
  double assoc_mw = 0.0;
  DurationMs assoc_ms = 0;

  std::array<TailTier, kMaxRadioTiers> tails = {
      TailTier{800.0, 5000, 0}, TailTier{460.0, 12000, 1500},
      TailTier{}, TailTier{}};
  std::size_t num_tails = 2;

  RadioModel() = default;
  /// Implicit: the paper's two-tail machine is the canonical two-tier
  /// instantiation (tail 0 = DCH tail at dch_mw, re-promotion free;
  /// tail 1 = FACH tail at fach_mw, re-promotion promo_fach_ms).
  RadioModel(const RadioPowerParams& params);  // NOLINT(runtime/explicit)

  /// The paper's WCDMA profile — identical numbers to
  /// RadioPowerParams::wcdma(), bit-for-bit through accounting.
  static RadioModel wcdma();
  /// LTE CDRX: fast promotion, short continuous-reception inactivity
  /// tier, long low-duty DRX tail (same numbers as
  /// RadioPowerParams::lte()).
  static RadioModel lte_cdrx();
  /// NR (5G) CDRX: higher connected power, three-tier tail chain
  /// (inactivity, short DRX, long DRX) with per-tier wake costs.
  static RadioModel nr_cdrx();
  /// Wi-Fi PSM: cheap active state, a single short PSM-exit tail, and a
  /// scan/associate cost charged per cold attach.
  static RadioModel wifi();

  /// Total tail window after the last transfer before reaching IDLE.
  DurationMs total_tail_ms() const {
    DurationMs total = 0;
    for (std::size_t i = 0; i < num_tails; ++i) total += tails[i].duration_ms;
    return total;
  }

  /// Power of a duty-cycle wake probe: network attach without a
  /// dedicated channel — the cheapest non-idle tier (the FACH level on
  /// the two-tail machine), or the active power for tail-less models.
  double probe_mw() const {
    return num_tails > 0 ? tails[num_tails - 1].power_mw : active_mw;
  }

  /// Throws netmaster::Error when any parameter is out of domain:
  /// non-finite or negative powers, negative durations, more tiers than
  /// kMaxRadioTiers, or a non-monotone tail chain (tail powers must not
  /// exceed the active power and must be non-increasing along the
  /// chain — an inactivity chain that heats up is a description bug).
  void validate() const;
};

/// The pair of radio interfaces the multi-radio accountant and the
/// co-scheduler know about, indexed by RadioId.
struct RadioSet {
  RadioModel cellular = RadioModel::wcdma();
  RadioModel wifi = RadioModel::wifi();

  const RadioModel& model(RadioId id) const {
    return id == RadioId::kWifi ? wifi : cellular;
  }
  void validate() const {
    cellular.validate();
    wifi.validate();
  }
};

/// Result of integrating a power model over a transfer set. Tail time
/// is kept per tier (index-aligned with RadioModel::tails); the legacy
/// DCH/FACH names read tiers 0 and 1.
struct RadioAccounting {
  double energy_j = 0.0;      ///< total radio energy (joules)
  DurationMs radio_on_ms = 0; ///< time in any non-IDLE state
  DurationMs active_ms = 0;   ///< connected time actually moving data
  std::array<DurationMs, kMaxRadioTiers> tail_tier_ms = {0, 0, 0, 0};
  DurationMs promo_ms = 0;    ///< time spent promoting
  DurationMs assoc_ms = 0;    ///< time spent in scan/associate
  int promotions = 0;         ///< number of paid promotions
  int associations = 0;       ///< number of paid cold attaches

  DurationMs tail_dch_ms() const { return tail_tier_ms[0]; }
  DurationMs tail_fach_ms() const { return tail_tier_ms[1]; }
  DurationMs tail_ms() const {
    DurationMs total = 0;
    for (const DurationMs t : tail_tier_ms) total += t;
    return total;
  }
};

/// The paper's g(t): radio energy of a single isolated transfer of the
/// given duration — cold attach (association + promotion from IDLE),
/// the connected period, then the full tail chain. This is the energy
/// *saved* when a screen-off activity is absorbed into an already-on
/// radio period.
double isolated_activity_energy(DurationMs transfer_ms,
                                const RadioModel& model);

/// Marginal energy of extending an already-connected period by
/// `transfer_ms` (no promotion, no extra tail) — the cost of the same
/// transfer when piggybacked onto a user-active slot.
double piggybacked_activity_energy(DurationMs transfer_ms,
                                   const RadioModel& model);

}  // namespace netmaster
