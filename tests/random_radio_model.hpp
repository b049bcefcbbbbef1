// Random N-tier radio models for the accounting fuzz suites
// (radio_timeline_test, accounting_test).
#pragma once

#include <cstddef>
#include <random>

#include "power/radio_model.hpp"

namespace netmaster {

/// A random generalized model: 1–4 tail tiers with monotone
/// non-increasing powers, random (possibly zero) durations and
/// promotion costs, and an association cost on about a third of the
/// draws — the full descriptive space the N-tier machine admits, well
/// beyond the stock two-tail instantiations.
inline RadioModel random_model(std::mt19937_64& rng) {
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

}  // namespace netmaster
