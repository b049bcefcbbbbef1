#include "engine/radio_timeline.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace netmaster::engine {

namespace {

/// mW * ms -> joules. Same expression as power/radio_model.cpp so the
/// final doubles are bit-identical.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
}

/// End of the allowed window holding t, t itself when no window holds
/// it, far past any horizon on the stock radio (`allowed` null). The
/// queries must not decrease: `cursor` only moves forward.
TimeMs allowed_until(const std::vector<Interval>* allowed,
                     std::size_t& cursor, TimeMs t) {
  if (allowed == nullptr) return std::numeric_limits<TimeMs>::max() / 4;
  while (cursor < allowed->size() && (*allowed)[cursor].end <= t) ++cursor;
  if (cursor < allowed->size() && (*allowed)[cursor].begin <= t) {
    return (*allowed)[cursor].end;
  }
  return t;
}

/// Drains a tail span through the tier chain (clamped per tier).
void charge_tail(const RadioModel& model,
                 std::array<DurationMs, kMaxRadioTiers>& tail_ms,
                 DurationMs span) {
  for (std::size_t i = 0; i < model.num_tails; ++i) {
    const DurationMs d = std::min(span, model.tails[i].duration_ms);
    tail_ms[i] += d;
    span -= d;
  }
}

}  // namespace

RrcIntegrator::RrcIntegrator(const RadioModel& model, TimeMs horizon_end,
                             const IntervalSet* radio_allowed)
    : model_(model),
      horizon_(horizon_end),
      allowed_(radio_allowed != nullptr ? &radio_allowed->intervals()
                                        : nullptr) {
  model_.validate();
}

void RrcIntegrator::integrate_closed() {
  // The totals live in locals for the loop.
  const RadioModel& m = model_;
  const DurationMs total_tail = m.total_tail_ms();
  TimeMs connected_until = connected_until_;
  DurationMs active_ms = active_ms_;
  std::array<DurationMs, kMaxRadioTiers> tail_ms = tail_ms_;
  DurationMs promo_ms = promo_ms_;
  DurationMs assoc_ms = assoc_ms_;
  int promotions = promotions_;
  int associations = associations_;
  bool connected = connected_;

  for (std::size_t k = 0; k < num_closed_; ++k) {
    const TimeMs b = closed_[k].begin;
    const TimeMs e = closed_[k].end;
    NM_REQUIRE(e <= horizon_,
               "transfer extends beyond the accounting horizon");
    if (allowed_ != nullptr) {
      const std::vector<Interval>& ivs = *allowed_;
      while (check_cursor_ < ivs.size() && ivs[check_cursor_].end <= b) {
        ++check_cursor_;
      }
      NM_REQUIRE(check_cursor_ < ivs.size() && ivs[check_cursor_].begin <= b,
                 "transfer outside the radio-allowed set");
    }
    const DurationMs dur = e - b;
    active_ms += dur;
    DurationMs promo = 0;
    bool cold = !connected;
    if (connected) {
      const TimeMs prev = connected_until;
      if (b <= prev) {
        // Arrives while the connected period (or its promotion shift)
        // is still running: the period simply extends, nothing is paid.
        connected_until = prev + dur;
        continue;
      }
      // The radio was tailing. The tail runs until the transfer, the
      // allowed cut or the end of the chain, whichever comes first; a
      // transfer inside a surviving tier pays that tier's re-promotion.
      const TimeMs cut = allowed_until(allowed_, cut_cursor_, prev);
      const TimeMs warm_end = prev + total_tail;
      charge_tail(m, tail_ms, std::min({b, cut, warm_end}) - prev);
      if (b <= cut && b < warm_end) {
        TimeMs boundary = prev;
        for (std::size_t i = 0; i < m.num_tails; ++i) {
          boundary += m.tails[i].duration_ms;
          if (b < boundary) {
            promo = m.tails[i].promo_ms;
            break;
          }
        }
      } else {
        cold = true;
      }
    }
    connected = true;
    DurationMs assoc = 0;
    if (cold) {
      // A cold attach from IDLE: the association burst, if the model
      // has one, then the promotion.
      promo = m.promo_idle_ms;
      assoc = m.assoc_ms;
      assoc_ms += assoc;
      associations += assoc > 0;
    }
    promotions += promo > 0;
    promo_ms += promo;
    connected_until = b + assoc + promo + dur;
  }

  num_closed_ = 0;
  connected_ = connected;
  connected_until_ = connected_until;
  active_ms_ = active_ms;
  tail_ms_ = tail_ms;
  promo_ms_ = promo_ms;
  assoc_ms_ = assoc_ms;
  promotions_ = promotions;
  associations_ = associations;
}

RadioAccounting RrcIntegrator::finish() {
  if (open_) {
    closed_[num_closed_++] = run_;
    open_ = false;
  }
  integrate_closed();
  // Trailing tail after the final transfer, clipped at the horizon and
  // the allowed window.
  if (connected_ && connected_until_ < horizon_) {
    const TimeMs cut = allowed_until(allowed_, cut_cursor_, connected_until_);
    const TimeMs stop = std::min(
        {horizon_, cut, connected_until_ + model_.total_tail_ms()});
    charge_tail(model_, tail_ms_,
                std::max<DurationMs>(stop - connected_until_, 0));
  }

  // Energy falls out of the integer totals exactly as in the
  // reference — same terms, same order, bit-identical doubles.
  const std::size_t nt = model_.num_tails;
  RadioAccounting acc;
  acc.active_ms = active_ms_;
  acc.tail_tier_ms = tail_ms_;
  acc.promo_ms = promo_ms_;
  acc.assoc_ms = assoc_ms_;
  acc.promotions = promotions_;
  acc.associations = associations_;
  acc.radio_on_ms = active_ms_ + promo_ms_ + assoc_ms_;
  for (std::size_t i = 0; i < nt; ++i) acc.radio_on_ms += tail_ms_[i];
  acc.energy_j = energy_joules(model_.active_mw, acc.active_ms);
  for (std::size_t i = 0; i < nt; ++i) {
    acc.energy_j += energy_joules(model_.tails[i].power_mw, tail_ms_[i]);
  }
  acc.energy_j += energy_joules(model_.promo_mw, acc.promo_ms);
  acc.energy_j += energy_joules(model_.assoc_mw, acc.assoc_ms);
  return acc;
}

RadioAccounting account_interval_set(const IntervalSet& transfers,
                                     const RadioModel& model,
                                     TimeMs horizon_end,
                                     const IntervalSet* radio_allowed) {
  RrcIntegrator integrator(model, horizon_end, radio_allowed);
  // A canonical set is in start order: every interval is fed.
  integrator.add(transfers.intervals());
  return integrator.finish();
}

}  // namespace netmaster::engine
