#include "engine/radio_timeline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace netmaster::engine {

namespace {

/// mW * ms -> joules. Same expression as power/radio_model.cpp so the
/// final doubles are bit-identical.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
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

/// The stock radio's cut: far past any horizon.
constexpr TimeMs kStockCut = std::numeric_limits<TimeMs>::max() / 4;

}  // namespace

RrcIntegrator::RrcIntegrator(const RadioModel& model, TimeMs horizon_end,
                             const DataSwitch* data_switch)
    : model_(model), horizon_(horizon_end) {
  model_.validate();
  if (data_switch == nullptr) return;
  switched_ = true;
  grace_ = data_switch->grace;
  windows_ = data_switch->windows;
  NM_REQUIRE(horizon_ >= 0, "data-switch horizon must be non-negative");
  NM_REQUIRE(windows_.empty() || (windows_.front().begin >= 0 &&
                                  windows_.back().end <= horizon_),
             "data-switch windows must lie within the horizon");
}

TimeMs RrcIntegrator::cut_at(TimeMs t) {
  if (!switched_) return kStockCut;
  if (t < chain_end_) return chain_end_;
  // Past the chain only a window can hold t; the windows that end by t
  // are behind every later query and run.
  while (window_ < windows_.size() && windows_[window_].end <= t) ++window_;
  if (window_ < windows_.size() && windows_[window_].begin <= t) {
    return windows_[window_].end;
  }
  return t;
}

void RrcIntegrator::chain_run(TimeMs b, TimeMs e) {
  const TimeMs hold = std::min(e + grace_, horizon_);
  NM_ASSERT(b < hold, "a run begins where the data switch is open");
  if (b > chain_end_) {
    // A new chain: the windows that end before b touch none of it.
    while (window_ < windows_.size() && windows_[window_].end < b) ++window_;
    chain_end_ = hold;
  } else {
    chain_end_ = std::max(chain_end_, hold);
  }
  // Coalesce every window that overlaps or touches the chain.
  while (window_ < windows_.size() && windows_[window_].begin <= chain_end_) {
    chain_end_ = std::max(chain_end_, windows_[window_].end);
    ++window_;
  }
}

void RrcIntegrator::integrate_closed() {
  switched_ ? integrate_runs<true>() : integrate_runs<false>();
}

template <bool kSwitched>
void RrcIntegrator::integrate_runs() {
  // The totals live in locals for the loop. The stock radio gets its
  // own instantiation: the chain costs its loop nothing.
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
        if constexpr (kSwitched) chain_run(b, e);
        continue;
      }
      // The radio was tailing. The tail runs until the transfer, the
      // switch's cut or the end of the chain, whichever comes first; a
      // transfer inside a surviving tier pays that tier's re-promotion.
      // The cut is taken before this run joins the chain.
      const TimeMs cut = kSwitched ? cut_at(prev) : kStockCut;
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
    if constexpr (kSwitched) chain_run(b, e);
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
  // the switch's cut.
  if (connected_ && connected_until_ < horizon_) {
    const TimeMs cut = cut_at(connected_until_);
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
                                     const DataSwitch* data_switch) {
  RrcIntegrator integrator(model, horizon_end, data_switch);
  // A canonical set is in start order: every interval is fed.
  integrator.add(transfers.intervals());
  return integrator.finish();
}

}  // namespace netmaster::engine
