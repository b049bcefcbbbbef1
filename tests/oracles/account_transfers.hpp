// The branchy reference RRC accountant, kept as a test oracle.
//
// The simulator accounts every schedule with the streaming
// engine::RrcIntegrator. This is the straightforward
// transfer-by-transfer integration it replaced, frozen here so the
// differential tests (radio_timeline_test fuzzes random 1-4-tier
// models against it) and the hand-computed trajectories of
// radio_model_test keep an independent reference. Nothing outside
// tests/ calls it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/error.hpp"
#include "common/interval.hpp"
#include "power/radio_model.hpp"

namespace netmaster::oracles {

namespace detail {

/// mW * ms -> joules, the same expression as power/radio_model.cpp.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
}

constexpr TimeMs kFar = std::numeric_limits<TimeMs>::max() / 4;

/// End of the allowed window containing t; t itself when t is not
/// covered (radio cut immediately); +inf-ish when unrestricted.
inline TimeMs allowed_until(const IntervalSet* allowed, TimeMs t) {
  if (allowed == nullptr) return kFar;
  const auto& ivs = allowed->intervals();
  const auto it = std::lower_bound(
      ivs.begin(), ivs.end(), t,
      [](const Interval& iv, TimeMs v) { return iv.end <= v; });
  if (it != ivs.end() && it->begin <= t) return it->end;
  return t;
}

}  // namespace detail

/// Integrates the power model over the union of `transfers`, clipping
/// the trailing tail at `horizon_end` (end of the accounting window).
/// Transfers starting during a promotion or while the connected state
/// is active continue the connected period without a new promotion; the
/// model shifts each transfer's completion by its promotion delay, as
/// real radios do. A cold attach additionally pays the association cost
/// before the promotion when the model has one.
///
/// When `radio_allowed` is non-null it models a policy-controlled data
/// switch (NetMaster's `svc data disable`): inactivity tails survive
/// only while inside the allowed set and are cut — radio straight to
/// IDLE — at its boundaries. Every transfer must lie inside the allowed
/// set; a transfer arriving after a cut always pays a cold promotion.
/// Null means the stock radio: tails always run to completion.
inline RadioAccounting account_transfers(
    const IntervalSet& transfers, const RadioModel& model,
    TimeMs horizon_end, const IntervalSet* radio_allowed = nullptr) {
  using detail::allowed_until;
  using detail::energy_joules;
  model.validate();
  RadioAccounting acc;

  // `connected_until` is the end of the current connected period,
  // including the attach/promotion shift applied to each transfer. A
  // sentinel below any valid timestamp marks "never connected yet".
  constexpr TimeMs kNever = std::numeric_limits<TimeMs>::min();
  TimeMs connected_until = kNever;
  const DurationMs total_tail = model.total_tail_ms();

  // Charges the tail chain that ran from `from` until `stop`: the span
  // drains through the tiers in order, each bounded by its own timer.
  const auto charge_tail = [&](TimeMs from, TimeMs stop) {
    DurationMs span = std::max<DurationMs>(stop - from, 0);
    for (std::size_t i = 0; i < model.num_tails; ++i) {
      const DurationMs d = std::min(span, model.tails[i].duration_ms);
      acc.tail_tier_ms[i] += d;
      span -= d;
    }
  };

  for (const Interval& iv : transfers.intervals()) {
    NM_REQUIRE(iv.end <= horizon_end,
               "transfer extends beyond the accounting horizon");
    if (radio_allowed != nullptr) {
      NM_REQUIRE(radio_allowed->contains(iv.begin),
                 "transfer outside the radio-allowed set");
    }
    const DurationMs dur = iv.length();
    TimeMs active_begin = iv.begin;
    DurationMs promo = 0;
    bool cold = false;

    if (connected_until == kNever) {
      cold = true;
    } else if (iv.begin <= connected_until) {
      // Arrives while the connected state is still busy (possibly
      // during a promotion shift): the connected period simply extends.
      active_begin = connected_until;
    } else {
      // The radio was tailing after the previous transfer; the tail
      // survives until the allowed window closes (or forever when
      // unrestricted).
      const TimeMs cut = allowed_until(radio_allowed, connected_until);
      const TimeMs warm_end = connected_until + total_tail;
      const TimeMs tail_stop = std::min({iv.begin, cut, warm_end});
      charge_tail(connected_until, tail_stop);

      if (iv.begin <= cut && iv.begin < warm_end) {
        // Inside some surviving tier: pay that tier's re-promotion.
        TimeMs boundary = connected_until;
        for (std::size_t i = 0; i < model.num_tails; ++i) {
          boundary += model.tails[i].duration_ms;
          if (iv.begin < boundary) {
            promo = model.tails[i].promo_ms;
            break;
          }
        }
      } else {
        // The radio reached IDLE (tail expired or was cut).
        cold = true;
      }
    }

    DurationMs assoc = 0;
    if (cold) {
      promo = model.promo_idle_ms;
      assoc = model.assoc_ms;
      acc.assoc_ms += assoc;
      acc.associations += assoc > 0;
    }
    if (promo > 0) ++acc.promotions;
    acc.promo_ms += promo;
    acc.active_ms += dur;
    connected_until = active_begin + assoc + promo + dur;
  }

  // Trailing tail after the final transfer, clipped at the horizon and
  // the allowed window.
  if (connected_until != kNever && connected_until < horizon_end) {
    const TimeMs cut = allowed_until(radio_allowed, connected_until);
    const TimeMs stop =
        std::min({horizon_end, cut, connected_until + total_tail});
    charge_tail(connected_until, stop);
  }

  acc.radio_on_ms = acc.active_ms + acc.promo_ms + acc.assoc_ms;
  for (std::size_t i = 0; i < model.num_tails; ++i) {
    acc.radio_on_ms += acc.tail_tier_ms[i];
  }
  // Term order matters: active, then the tail chain in order, then
  // promotion, then association. The two-tail profile reproduces the
  // historical sum bit for bit (the association term contributes an
  // exact +0.0 there).
  acc.energy_j = energy_joules(model.active_mw, acc.active_ms);
  for (std::size_t i = 0; i < model.num_tails; ++i) {
    acc.energy_j += energy_joules(model.tails[i].power_mw,
                                  acc.tail_tier_ms[i]);
  }
  acc.energy_j += energy_joules(model.promo_mw, acc.promo_ms);
  acc.energy_j += energy_joules(model.assoc_mw, acc.assoc_ms);
  return acc;
}

}  // namespace netmaster::oracles
