// Cellular signal-strength substrate — the paper's future-work hook.
//
// §VI-A notes that NetMaster does not improve *peak* rates because "the
// peak rate is determined by the channel state, no matter what
// scheduling scheme is used. We include this part in our future work."
// This module supplies that missing piece: a deterministic synthetic
// signal-quality trace (diurnal shape + slow fading, piecewise constant
// over a coherence time), the standard energy/rate consequences of
// signal quality (transmitting at the cell edge costs several times the
// power — the Bartendr observation), and a channel-aware post-pass that
// nudges policy-deferred transfers toward good-signal moments.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "power/radio_model.hpp"
#include "sim/outcome.hpp"
#include "trace/trace.hpp"

namespace netmaster::channel {

/// Parameters of the synthetic signal trace. Quality lives in [0, 1]
/// (0 = cell edge, 1 = excellent).
struct SignalConfig {
  double base_quality = 0.65;
  /// Diurnal swing: stronger at night (empty cell), weaker during
  /// commute/office hours (load + indoor attenuation).
  double diurnal_amplitude = 0.15;
  /// Slow-fading noise per coherence segment.
  double noise_sigma = 0.12;
  /// Length of a piecewise-constant quality segment.
  DurationMs coherence_ms = 10 * kMsPerMinute;
  std::uint64_t seed = 0;

  void validate() const;
};

/// Deterministic piecewise-constant signal-quality trace.
class SignalTrace {
 public:
  /// Generates quality over [0, horizon).
  static SignalTrace generate(const SignalConfig& config, TimeMs horizon);

  double quality_at(TimeMs t) const;
  /// Mean quality over [begin, end) (length-weighted over segments).
  double mean_quality(TimeMs begin, TimeMs end) const;

  TimeMs horizon() const { return horizon_; }
  DurationMs coherence() const { return coherence_; }

  /// Transmit-power multiplier relative to good signal: ~1x at
  /// excellent quality, ~3.5x at the cell edge (Bartendr-style).
  static double power_multiplier(double quality);
  /// Achievable-rate multiplier: ~1x at excellent quality, ~0.25x at
  /// the cell edge.
  static double rate_multiplier(double quality);

 private:
  TimeMs horizon_ = 0;
  DurationMs coherence_ = 1;
  std::vector<double> segments_;  // quality per coherence segment
};

/// Extra active-state energy a transfer schedule pays for signal
/// conditions: for each executed transfer, active-state energy scaled
/// by (power_multiplier(mean quality during the transfer) − 1). Added
/// on top of the base RRC accounting, which assumes nominal signal.
/// Takes any RadioModel (RadioPowerParams converts implicitly).
double signal_energy_penalty_j(
    const std::vector<sim::ExecutedTransfer>& transfers,
    const SignalTrace& signal, const RadioModel& model);

/// Channel-aware post-pass (the future-work extension), Bartendr
/// style: the executed schedule is decomposed into *batches* (transfers
/// sharing one radio power-up: gaps below promotion+grace), and each
/// batch consisting purely of policy-deferred transfers may shift as a
/// unit by up to ±window — never before any member's arrival, always
/// inside the horizon — to the nearby position with the least
/// signal-power cost. Shifting a whole batch keeps its own promotions
/// and tails, and under a data switch the accountant's dormancy grace
/// follows each moved transfer; the RRC energy can still move a little
/// where a batch lands nearer to or farther from other transfers and
/// duty wakes (bench_ext_channel). Returns the number of transfers
/// moved.
std::size_t apply_channel_awareness(sim::PolicyOutcome& outcome,
                                    const UserTrace& eval,
                                    const SignalTrace& signal,
                                    DurationMs window_ms,
                                    const RadioModel& model);

}  // namespace netmaster::channel
