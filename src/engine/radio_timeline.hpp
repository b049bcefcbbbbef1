// The radio accountant: RrcIntegrator integrates a schedule's executed
// transfers through the RRC tail chain, optionally under a data switch.
// sim/accounting.cpp streams executed transfers through it; for an
// outcome that drives the data switch it hands over the dormancy grace
// and the switch's windows that are not runs, and the integrator
// derives each tail cut while it integrates.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <span>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "power/radio_model.hpp"

namespace netmaster::engine {

/// A policy-controlled data switch (NetMaster's `svc data disable`) in
/// the form the accountant derives it: the switch is open over each
/// integrated run held open for `grace` after it ends (clamped to the
/// horizon), and over `windows`. `windows` are the switch's windows
/// that are not runs: canonical (sorted, disjoint, non-touching,
/// non-empty) and within [0, horizon). They must outlive the
/// integrator.
struct DataSwitch {
  DurationMs grace = 0;  ///< non-negative
  std::span<const Interval> windows;
};

/// Streaming RRC state-residency integrator — the one radio accountant
/// of the simulator, over the N-tier tail chain. Transfers arrive as
/// AoS intervals in start order and are integrated as they come: no
/// column scatter, no separate validation pass, no materialized
/// transfer set. add() coalesces the arrivals into canonical runs;
/// each closed run then takes one integration step: the gap since the
/// connected period drains through the tier chain, and the transfer
/// pays the re-promotion of the tier it lands in (a gap past the chain,
/// or past the switch's cut, is a cold attach with the association
/// burst). Energy is derived once by finish() from the integer
/// millisecond totals. The transfer-by-transfer reference it replaced
/// lives on as a test oracle (tests/oracles/account_transfers.hpp);
/// radio_timeline_test fuzzes the two for bit-for-bit equality over
/// random 1–4-tier models. Takes any RadioModel (RadioPowerParams
/// converts implicitly).
///
/// With a DataSwitch, inactivity tails survive only while the switch is
/// open and are cut — radio straight to IDLE — where it closes. The
/// allowed set is never built. Each tail cut is answered from a monotone
/// chain: the runs integrated so far, each held open to
/// min(end + grace, horizon), merged with every window that overlaps or
/// touches them, exactly as IntervalSet coalesces; a query past the
/// chain falls to the window holding it, if any. No lookahead is
/// needed: a tail query at `prev` happens only when the next run begins
/// at b > prev, and every later run's window begins at or after b, so
/// it could move the cut only when b <= cut — and then min(b, cut,
/// warm_end) already picks b. A run begins inside its own grace window
/// (b < e <= horizon), so every transfer starts where the switch is
/// open by construction. Without a DataSwitch the radio is stock: tails
/// always run to completion.
class RrcIntegrator {
 public:
  /// On the stock radio when `data_switch` is null. Throws
  /// netmaster::Error under a switch whose horizon is negative or one of
  /// whose windows lies outside [0, horizon_end).
  RrcIntegrator(const RadioModel& model, TimeMs horizon_end,
                const DataSwitch* data_switch = nullptr);

  /// Feeds `interval_of(item)` for each of `items`, in order. Empty
  /// intervals are ignored. One that begins at or after the open run's
  /// begin joins the canonical form exactly as IntervalSet's
  /// constructor would: it extends the run when it touches or overlaps
  /// it, otherwise it closes the run and opens the next one. An arrival
  /// that begins before the open run is out of order: add stops there,
  /// feeds nothing more and returns its index (items.size() when every
  /// interval was fed), and the caller canonicalizes the schedule
  /// instead. `interval_of` has been called on every item up to and
  /// including the returned one; it may throw (sim::account validates
  /// each transfer in it), after which the integrator is spent. Throws
  /// netmaster::Error when a closed run extends beyond the horizon
  /// (checked when the run is integrated).
  template <typename T, typename IntervalOf>
  std::size_t add(std::span<const T> items, IntervalOf&& interval_of);

  std::size_t add(std::span<const Interval> intervals) {
    return add(intervals, [](const Interval& iv) { return iv; });
  }

  /// Integrates the open run and the trailing tail (clipped at the
  /// horizon and the switch's cut) and returns the accounting. Call
  /// once, after the last add.
  RadioAccounting finish();

 private:
  /// Closed runs wait in a small batch: add() keeps the open run in
  /// locals (as members, every batch store would force them back to
  /// memory), and the integration loop runs over the batch with its
  /// totals in locals. On
  /// the replay-spill grid's stock columns, stepping each run from
  /// member state took ~30% longer, coalescing by branch ~20% longer,
  /// and a branch-free step ~45% longer (BENCH_account.json).
  /// add() coalesces kBatch arrivals at a time without a call (each
  /// closes at most one run) and integrates once kBatch runs wait, so
  /// the batch holds up to 2 * kBatch - 1; the call-free stretch keeps
  /// the open run in registers.
  static constexpr std::size_t kBatch = 64;

  /// Integrates the batched runs, in order, and empties the batch.
  void integrate_closed();
  template <bool kSwitched>
  void integrate_runs();

  /// Where the switch cuts a tail that starts at t: the end of the
  /// chain or window holding t, t itself when the switch is closed at
  /// t, far past any horizon on the stock radio. Queries must not
  /// decrease, and each falls between the runs already chained and the
  /// next one.
  TimeMs cut_at(TimeMs t);

  /// Adds the run [b, e), held open for the grace, to the chain.
  void chain_run(TimeMs b, TimeMs e);

  RadioModel model_;
  TimeMs horizon_;
  bool open_ = false;  // run_ holds the open run
  Interval run_;
  std::size_t num_closed_ = 0;
  std::array<Interval, 2 * kBatch> closed_;

  bool connected_ = false;  // some run was integrated
  TimeMs connected_until_ = 0;
  DurationMs active_ms_ = 0;
  std::array<DurationMs, kMaxRadioTiers> tail_ms_ = {0, 0, 0, 0};
  DurationMs promo_ms_ = 0;
  DurationMs assoc_ms_ = 0;
  int promotions_ = 0;
  int associations_ = 0;

  bool switched_ = false;
  DurationMs grace_ = 0;
  std::span<const Interval> windows_;
  std::size_t window_ = 0;  // first window not chained or passed
  // End of the chain holding the last integrated run.
  TimeMs chain_end_ = std::numeric_limits<TimeMs>::min();
};

/// Integrates a canonical IntervalSet with one RrcIntegrator.
RadioAccounting account_interval_set(
    const IntervalSet& transfers, const RadioModel& model,
    TimeMs horizon_end, const DataSwitch* data_switch = nullptr);

template <typename T, typename IntervalOf>
std::size_t RrcIntegrator::add(std::span<const T> items,
                               IntervalOf&& interval_of) {
  std::size_t k = 0;
  for (; !open_ && k < items.size(); ++k) {
    run_ = interval_of(items[k]);
    open_ = !run_.empty();
  }
  TimeMs begin = run_.begin;
  TimeMs end = run_.end;
  std::size_t closed = num_closed_;
  while (k < items.size()) {
    const std::size_t stop = std::min(items.size(), k + kBatch);
    for (; k < stop; ++k) {
      const Interval iv = interval_of(items[k]);
      if (iv.empty()) continue;
      if (iv.begin < begin) break;
      // Whether an arrival opens a new run is a coin flip on real
      // schedules (half of them overlap their predecessor), so the run
      // is selected by mask instead of a branch: the open run is always
      // written to the batch and kept only when the arrival opens a new
      // one.
      const bool opens = iv.begin > end;
      const TimeMs mask = -static_cast<TimeMs>(opens);
      const TimeMs extended = std::max(end, iv.end);
      closed_[closed] = Interval{begin, end};
      closed += static_cast<std::size_t>(opens);
      begin ^= (begin ^ iv.begin) & mask;
      end = extended ^ ((extended ^ iv.end) & mask);
    }
    if (closed >= kBatch) {
      num_closed_ = closed;
      integrate_closed();
      closed = 0;
    }
    if (k < stop) break;  // refused
  }
  run_ = Interval{begin, end};
  num_closed_ = closed;
  return k;
}

}  // namespace netmaster::engine
