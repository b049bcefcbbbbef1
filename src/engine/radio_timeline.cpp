#include "engine/radio_timeline.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace netmaster::engine {

RadioTimeline::RadioTimeline(TimeMs horizon) : horizon_(horizon) {
  NM_REQUIRE(horizon >= 0, "timeline horizon must be non-negative");
}

void RadioTimeline::allow(TimeMs begin, TimeMs end) {
  begin = std::max<TimeMs>(begin, 0);
  end = std::min(end, horizon_);
  if (begin < end) allowed_.add(begin, end);
}

void RadioTimeline::allow(const IntervalSet& set) {
  allowed_.add(set.clipped(0, horizon_));
}

void RadioTimeline::allow_windows(const std::vector<Interval>& windows) {
  allow_clamped(windows);
}

void RadioTimeline::allow_transfers(
    const std::vector<sim::ExecutedTransfer>& transfers, DurationMs grace) {
  std::vector<Interval> windows;
  windows.reserve(transfers.size());
  for (const sim::ExecutedTransfer& t : transfers) {
    if (t.radio != RadioId::kCellular) continue;
    windows.push_back({t.start, t.start + t.duration + grace});
  }
  allow_clamped(std::move(windows));
}

void RadioTimeline::allow_wakes(const std::vector<duty::WakeEvent>& wakes) {
  std::vector<Interval> windows;
  windows.reserve(wakes.size());
  for (const duty::WakeEvent& w : wakes) {
    windows.push_back({w.time, w.time + w.window});
  }
  allow_clamped(std::move(windows));
}

void RadioTimeline::allow_clamped(std::vector<Interval> windows) {
  for (Interval& w : windows) {
    w.begin = std::max<TimeMs>(w.begin, 0);
    w.end = std::min(w.end, horizon_);
  }
  // The constructor drops the windows the clamp emptied and canonicalizes
  // the rest in O(n + k log k); the union then costs one linear merge,
  // or nothing when the timeline was still empty.
  IntervalSet set(std::move(windows));
  if (allowed_.empty()) {
    allowed_ = std::move(set);
  } else {
    allowed_.add(set);
  }
}

namespace {

/// mW * ms -> joules. Same expression as power/radio_model.cpp so the
/// final doubles are bit-identical.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
}

constexpr TimeMs kFar = std::numeric_limits<TimeMs>::max() / 4;

}  // namespace

RadioAccounting account_columns(std::span<const TimeMs> begins,
                                std::span<const TimeMs> ends,
                                const RadioModel& model,
                                TimeMs horizon_end,
                                const IntervalSet* radio_allowed) {
  model.validate();
  const std::size_t n = begins.size();
  NM_REQUIRE(n == ends.size(),
             "transfer columns must have equal lengths");

  const std::vector<Interval>* allowed =
      radio_allowed != nullptr ? &radio_allowed->intervals() : nullptr;

  // Validation pass, in index order so a doubly-invalid input raises
  // the same error the reference implementation would. The canonical
  // columns are sorted, so the allowed-set membership check is one
  // monotone merge cursor instead of n binary searches.
  {
    std::size_t j = 0;
    for (std::size_t k = 0; k < n; ++k) {
      NM_REQUIRE(ends[k] <= horizon_end,
                 "transfer extends beyond the accounting horizon");
      if (allowed != nullptr) {
        const TimeMs b = begins[k];
        while (j < allowed->size() && (*allowed)[j].end <= b) ++j;
        NM_REQUIRE(j < allowed->size() && (*allowed)[j].begin <= b,
                   "transfer outside the radio-allowed set");
      }
    }
  }

  const std::size_t nt = model.num_tails;
  const DurationMs total_tail = model.total_tail_ms();
  DurationMs active_ms = 0;
  std::array<DurationMs, kMaxRadioTiers> tail_ms = {0, 0, 0, 0};
  DurationMs promo_ms = 0;
  DurationMs assoc_total = 0;
  int promotions = 0;
  int associations = 0;

  // End-of-allowed-window cursor. Query points (the running
  // connected_until) are non-decreasing, so one forward scan serves
  // every lookup including the trailing tail.
  std::size_t aj = 0;
  const auto allowed_until = [&](TimeMs t) -> TimeMs {
    if (allowed == nullptr) return kFar;
    while (aj < allowed->size() && (*allowed)[aj].end <= t) ++aj;
    if (aj < allowed->size() && (*allowed)[aj].begin <= t) {
      return (*allowed)[aj].end;
    }
    return t;
  };

  // Drains a tail span through the tier chain (clamped per tier).
  const auto charge_tail = [&](DurationMs span) {
    for (std::size_t i = 0; i < nt; ++i) {
      const DurationMs d = std::min(span, model.tails[i].duration_ms);
      tail_ms[i] += d;
      span -= d;
    }
  };

  TimeMs connected_until = 0;
  if (n > 0) {
    // Peel the first transfer: always a cold attach from IDLE
    // (association burst, if the model has one, then the promotion).
    const DurationMs promo0 = model.promo_idle_ms;
    promotions += promo0 > 0;
    promo_ms += promo0;
    assoc_total += model.assoc_ms;
    associations += model.assoc_ms > 0;
    const DurationMs dur0 = ends[0] - begins[0];
    active_ms += dur0;
    connected_until = begins[0] + model.assoc_ms + promo0 + dur0;

    for (std::size_t k = 1; k < n; ++k) {
      const TimeMs b = begins[k];
      const DurationMs dur = ends[k] - b;
      const TimeMs prev = connected_until;
      const TimeMs cut = allowed_until(prev);
      const TimeMs warm_end = prev + total_tail;

      // Inter-transfer tail: runs from prev to min(b, cut, tail
      // expiry). The no-gap case (b <= prev: the connected period
      // simply extends) clamps the span to zero — no branch.
      const TimeMs tail_stop = std::min({b, cut, warm_end});
      charge_tail(std::max<DurationMs>(tail_stop - prev, 0));

      // Promotion class by boolean arithmetic: a monotone scan over
      // the tier boundaries selects the surviving tier the transfer
      // lands in (paying that tier's re-promotion); a gap past the
      // chain — or past the allowed cut — is a cold attach.
      const bool gap = b > prev;
      const bool within = b <= cut;
      DurationMs promo = 0;
      bool matched = false;
      TimeMs boundary = prev;
      for (std::size_t i = 0; i < nt; ++i) {
        boundary += model.tails[i].duration_ms;
        const bool in_tier = gap & within & !matched & (b < boundary);
        promo += static_cast<DurationMs>(in_tier) * model.tails[i].promo_ms;
        matched |= in_tier;
      }
      const bool cold = gap & !matched;
      promo += static_cast<DurationMs>(cold) * model.promo_idle_ms;
      const DurationMs assoc =
          static_cast<DurationMs>(cold) * model.assoc_ms;
      assoc_total += assoc;
      associations += assoc > 0;
      promotions += promo > 0;
      promo_ms += promo;
      active_ms += dur;
      connected_until = std::max(b, prev) + assoc + promo + dur;
    }

    // Trailing tail after the final transfer, clipped at the horizon
    // and the allowed window.
    if (connected_until < horizon_end) {
      const TimeMs cut = allowed_until(connected_until);
      const TimeMs stop =
          std::min({horizon_end, cut, connected_until + total_tail});
      charge_tail(std::max<DurationMs>(stop - connected_until, 0));
    }
  }

  // Energy falls out of the integer totals exactly as in the
  // reference — same terms, same order, bit-identical doubles.
  RadioAccounting acc;
  acc.active_ms = active_ms;
  acc.tail_tier_ms = tail_ms;
  acc.promo_ms = promo_ms;
  acc.assoc_ms = assoc_total;
  acc.promotions = promotions;
  acc.associations = associations;
  acc.radio_on_ms = active_ms + promo_ms + assoc_total;
  for (std::size_t i = 0; i < nt; ++i) acc.radio_on_ms += tail_ms[i];
  acc.energy_j = energy_joules(model.active_mw, acc.active_ms);
  for (std::size_t i = 0; i < nt; ++i) {
    acc.energy_j += energy_joules(model.tails[i].power_mw, tail_ms[i]);
  }
  acc.energy_j += energy_joules(model.promo_mw, acc.promo_ms);
  acc.energy_j += energy_joules(model.assoc_mw, acc.assoc_ms);
  return acc;
}

RadioAccounting account_interval_set(const IntervalSet& transfers,
                                     const RadioModel& model,
                                     TimeMs horizon_end,
                                     const IntervalSet* radio_allowed) {
  // Scatter the AoS intervals into reusable per-thread columns: the
  // kernel wants SoA and the accounting hot path must not allocate in
  // steady state.
  thread_local std::vector<TimeMs> begins;
  thread_local std::vector<TimeMs> ends;
  const std::vector<Interval>& ivs = transfers.intervals();
  begins.clear();
  ends.clear();
  begins.reserve(ivs.size());
  ends.reserve(ivs.size());
  for (const Interval& iv : ivs) {
    begins.push_back(iv.begin);
    ends.push_back(iv.end);
  }
  return account_columns(begins, ends, model, horizon_end, radio_allowed);
}

}  // namespace netmaster::engine
