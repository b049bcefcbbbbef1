// The radio accountant: RrcIntegrator integrates a schedule's executed
// transfers through the RRC tail chain, optionally under a data switch's
// allowed set. sim/accounting.cpp streams executed transfers through it
// and, for an outcome that drives the data switch, derives the allowed
// set itself from the canonical schedule.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "power/radio_model.hpp"

namespace netmaster::engine {

/// Streaming RRC state-residency integrator — the one radio accountant
/// of the simulator, over the N-tier tail chain. Transfers arrive as
/// AoS intervals in start order and are integrated as they come: no
/// column scatter, no separate validation pass, no materialized
/// transfer set. add() coalesces the arrivals into canonical runs;
/// each closed run then takes one integration step: the gap since the
/// connected period drains through the tier chain, the transfer pays
/// the re-promotion of the tier it lands in (a gap past the chain, or
/// past the allowed cut, is a cold attach with the association burst),
/// and the allowed-set lookups are two monotone merge cursors
/// (O(n + m) in total). Energy is derived once by finish() from the
/// integer millisecond totals. The transfer-by-transfer reference it
/// replaced lives on as a test oracle
/// (tests/oracles/account_transfers.hpp); radio_timeline_test fuzzes
/// the two for bit-for-bit equality over random 1–4-tier models. Takes
/// any RadioModel (RadioPowerParams converts implicitly).
///
/// When `radio_allowed` is non-null it models a policy-controlled data
/// switch (NetMaster's `svc data disable`): inactivity tails survive
/// only inside the allowed set and are cut — radio straight to IDLE —
/// at its boundaries. Every transfer must start inside the allowed set.
/// Null means the stock radio: tails always run to completion. The set
/// must outlive the integrator.
class RrcIntegrator {
 public:
  RrcIntegrator(const RadioModel& model, TimeMs horizon_end,
                const IntervalSet* radio_allowed = nullptr);

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
  /// netmaster::Error when a closed run extends beyond the horizon or
  /// starts outside the allowed set (checked when the run is
  /// integrated).
  template <typename T, typename IntervalOf>
  std::size_t add(std::span<const T> items, IntervalOf&& interval_of);

  std::size_t add(std::span<const Interval> intervals) {
    return add(intervals, [](const Interval& iv) { return iv; });
  }

  /// Integrates the open run and the trailing tail (clipped at the
  /// horizon and the allowed window) and returns the accounting. Call
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
  static constexpr std::size_t kBatch = 64;

  /// Integrates the batched runs, in order, and empties the batch.
  void integrate_closed();

  RadioModel model_;
  TimeMs horizon_;
  const std::vector<Interval>* allowed_;
  std::size_t check_cursor_ = 0;  // validation: first window ending past a begin
  std::size_t cut_cursor_ = 0;    // tails: first window ending past a query

  bool open_ = false;  // run_ holds the open run
  Interval run_;
  std::size_t num_closed_ = 0;
  std::array<Interval, kBatch> closed_;

  bool connected_ = false;  // some run was integrated
  TimeMs connected_until_ = 0;
  DurationMs active_ms_ = 0;
  std::array<DurationMs, kMaxRadioTiers> tail_ms_ = {0, 0, 0, 0};
  DurationMs promo_ms_ = 0;
  DurationMs assoc_ms_ = 0;
  int promotions_ = 0;
  int associations_ = 0;
};

/// Integrates a canonical IntervalSet with one RrcIntegrator.
RadioAccounting account_interval_set(
    const IntervalSet& transfers, const RadioModel& model,
    TimeMs horizon_end, const IntervalSet* radio_allowed = nullptr);

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
  for (; k < items.size(); ++k) {
    const Interval iv = interval_of(items[k]);
    if (iv.empty()) continue;
    if (iv.begin < begin) break;
    // Whether an arrival opens a new run is a coin flip on real
    // schedules (half of them overlap their predecessor), so the run is
    // selected by mask instead of a branch: the open run is always
    // written to the batch and kept only when the arrival opens a new
    // one.
    const bool opens = iv.begin > end;
    const TimeMs mask = -static_cast<TimeMs>(opens);
    const TimeMs extended = std::max(end, iv.end);
    closed_[closed] = Interval{begin, end};
    closed += static_cast<std::size_t>(opens);
    begin ^= (begin ^ iv.begin) & mask;
    end = extended ^ ((extended ^ iv.end) & mask);
    if (closed == kBatch) {
      num_closed_ = closed;
      integrate_closed();
      closed = 0;
    }
  }
  run_ = Interval{begin, end};
  num_closed_ = closed;
  return k;
}

}  // namespace netmaster::engine
