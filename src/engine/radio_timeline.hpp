// Canonical builder for the radio on/off timeline.
//
// Policies that drive the data switch (NetMaster, the oracle, the
// online event loop) all need the same construction: the set of windows
// in which the radio may be non-IDLE — executed transfers extended by
// the dormancy-signalling grace, duty-cycle wake probes, predicted
// active slots. Each used to assemble that IntervalSet by hand;
// RadioTimeline is the one shared builder, clamping every window to
// [0, horizon) and keeping the set canonical, and the accountant
// (sim/accounting.cpp) consumes the same representation.
#pragma once

#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "duty/duty_cycle.hpp"
#include "power/radio_model.hpp"
#include "sim/outcome.hpp"

namespace netmaster::engine {

class RadioTimeline {
 public:
  explicit RadioTimeline(TimeMs horizon);

  TimeMs horizon() const { return horizon_; }

  /// Allows the radio inside [begin, end), clamped to [0, horizon).
  void allow(TimeMs begin, TimeMs end);
  void allow(const Interval& window) { allow(window.begin, window.end); }

  /// Union with an existing canonical set, clipped to [0, horizon)
  /// first: one linear merge instead of an insert per interval.
  void allow(const IntervalSet& set);

  /// The bulk builders below clamp their windows into one vector,
  /// canonicalize it once (IntervalSet's run-adaptive constructor, so
  /// mostly-sorted input costs O(n + k log k)) and union it once: the
  /// same set as allowing each window in turn, without an O(n) vector
  /// shift per window that lands before the set's end.
  void allow_windows(const std::vector<Interval>& windows);

  /// Allows each executed transfer's interval, extended by `grace`
  /// (the release-signalling delay before the forced dormancy drop).
  /// Transfers assigned to a non-cellular radio are skipped: this
  /// timeline models the cellular data switch, and a Wi-Fi transfer
  /// does not hold the cellular radio open.
  void allow_transfers(const std::vector<sim::ExecutedTransfer>& transfers,
                       DurationMs grace = 0);

  /// Allows each duty-cycle probe window.
  void allow_wakes(const std::vector<duty::WakeEvent>& wakes);

  const IntervalSet& allowed() const { return allowed_; }
  IntervalSet build() const& { return allowed_; }
  IntervalSet build() && { return std::move(allowed_); }

 private:
  /// Clamps `windows` to [0, horizon), canonicalizes, unions once.
  void allow_clamped(std::vector<Interval> windows);

  TimeMs horizon_;
  IntervalSet allowed_;
};

/// Vectorized RRC state-residency accounting over SoA time columns —
/// the one radio accountant of the simulator, over the N-tier tail
/// chain. `begins`/`ends` are the canonical transfer columns (sorted,
/// disjoint, non-empty, equal length — exactly the layout of
/// mem::SessionColumns and of an IntervalSet's split fields). The
/// kernel makes a single branch-minimized pass: tail spans drain
/// through the tier chain with max/min clamps, promotion classes are
/// boolean-arithmetic selectors over the tier boundaries instead of a
/// branchy tier search, and the allowed-set lookups are two monotone
/// merge cursors instead of per-transfer binary searches (O(n + m)
/// total). Energy is derived once at the end from the integer
/// millisecond totals. The transfer-by-transfer reference it replaced
/// lives on as a test oracle (tests/oracles/account_transfers.hpp);
/// radio_timeline_test fuzzes the two for bit-for-bit equality over
/// random 1–4-tier models. Takes any RadioModel (RadioPowerParams
/// converts implicitly).
///
/// When `radio_allowed` is non-null it models a policy-controlled data
/// switch (NetMaster's `svc data disable`): inactivity tails survive
/// only inside the allowed set and are cut — radio straight to IDLE —
/// at its boundaries. Every transfer must start inside the allowed set.
/// Null means the stock radio: tails always run to completion.
RadioAccounting account_columns(std::span<const TimeMs> begins,
                                std::span<const TimeMs> ends,
                                const RadioModel& model,
                                TimeMs horizon_end,
                                const IntervalSet* radio_allowed = nullptr);

/// account_columns over a canonical IntervalSet: splits the AoS
/// intervals into thread-local scratch columns (no steady-state
/// allocation) and runs the vectorized kernel.
RadioAccounting account_interval_set(
    const IntervalSet& transfers, const RadioModel& model,
    TimeMs horizon_end, const IntervalSet* radio_allowed = nullptr);

}  // namespace netmaster::engine
