// Tests for the signal-strength substrate and the channel-aware
// post-pass (the paper's future-work extension).
#include <gtest/gtest.h>

#include "testkit/signal_model.hpp"
#include "common/error.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::channel {
namespace {

constexpr TimeMs kDay = kMsPerDay;

SignalTrace day_trace(std::uint64_t seed = 1) {
  SignalConfig cfg;
  cfg.seed = seed;
  return SignalTrace::generate(cfg, kDay);
}

TEST(SignalConfig, Validation) {
  SignalConfig bad;
  bad.base_quality = 1.5;
  EXPECT_THROW(bad.validate(), Error);
  bad = SignalConfig{};
  bad.coherence_ms = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = SignalConfig{};
  bad.noise_sigma = -0.1;
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_NO_THROW(SignalConfig{}.validate());
}

TEST(SignalTrace, QualityBoundedAndDeterministic) {
  const SignalTrace a = day_trace(7);
  const SignalTrace b = day_trace(7);
  for (TimeMs t = 0; t < kDay; t += 7 * kMsPerMinute) {
    EXPECT_GE(a.quality_at(t), 0.0);
    EXPECT_LE(a.quality_at(t), 1.0);
    EXPECT_DOUBLE_EQ(a.quality_at(t), b.quality_at(t));
  }
  EXPECT_THROW(a.quality_at(-1), Error);
  EXPECT_THROW(a.quality_at(kDay), Error);
}

TEST(SignalTrace, PiecewiseConstantOverCoherence) {
  const SignalTrace s = day_trace();
  const TimeMs seg = 3 * s.coherence();
  EXPECT_DOUBLE_EQ(s.quality_at(seg), s.quality_at(seg + 1));
  EXPECT_DOUBLE_EQ(s.quality_at(seg), s.quality_at(seg + s.coherence() - 1));
}

TEST(SignalTrace, DiurnalShapeNightBeatsEvening) {
  // Average quality around 04:00 should exceed the 18:00 dip when the
  // noise is removed.
  SignalConfig cfg;
  cfg.noise_sigma = 0.0;
  const SignalTrace s = SignalTrace::generate(cfg, kDay);
  EXPECT_GT(s.quality_at(hours(4)), s.quality_at(hours(18)));
}

TEST(SignalTrace, MeanQualityWeightsSegments) {
  const SignalTrace s = day_trace();
  // Mean over a whole segment equals the point value.
  const TimeMs seg = 5 * s.coherence();
  EXPECT_NEAR(s.mean_quality(seg, seg + s.coherence()),
              s.quality_at(seg), 1e-12);
  // Mean over two segments lies between them.
  const double q1 = s.quality_at(seg);
  const double q2 = s.quality_at(seg + s.coherence());
  const double mean = s.mean_quality(seg, seg + 2 * s.coherence());
  EXPECT_GE(mean, std::min(q1, q2) - 1e-12);
  EXPECT_LE(mean, std::max(q1, q2) + 1e-12);
  EXPECT_THROW(s.mean_quality(10, 5), Error);
}

TEST(Multipliers, MonotoneAndAnchored) {
  EXPECT_DOUBLE_EQ(SignalTrace::power_multiplier(1.0), 1.0);
  EXPECT_NEAR(SignalTrace::power_multiplier(0.0), 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(SignalTrace::rate_multiplier(1.0), 1.0);
  EXPECT_DOUBLE_EQ(SignalTrace::rate_multiplier(0.0), 0.25);
  double prev_p = SignalTrace::power_multiplier(0.0);
  double prev_r = SignalTrace::rate_multiplier(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    EXPECT_LT(SignalTrace::power_multiplier(q), prev_p);
    EXPECT_GT(SignalTrace::rate_multiplier(q), prev_r);
    prev_p = SignalTrace::power_multiplier(q);
    prev_r = SignalTrace::rate_multiplier(q);
  }
  EXPECT_THROW(SignalTrace::power_multiplier(1.1), Error);
}

TEST(SignalPenalty, ZeroAtPerfectSignal) {
  SignalConfig cfg;
  cfg.base_quality = 1.0;
  cfg.diurnal_amplitude = 0.0;
  cfg.noise_sigma = 0.0;
  const SignalTrace s = SignalTrace::generate(cfg, kDay);
  const std::vector<sim::ExecutedTransfer> transfers = {
      {0, 1000, 5000}};
  EXPECT_NEAR(signal_energy_penalty_j(transfers, s,
                                      RadioPowerParams::wcdma()),
              0.0, 1e-9);
}

TEST(SignalPenalty, GrowsAsSignalDegrades) {
  const std::vector<sim::ExecutedTransfer> transfers = {
      {0, 1000, 5000}, {1, 60'000, 8000}};
  double prev = -1.0;
  for (double base : {0.9, 0.6, 0.3}) {
    SignalConfig cfg;
    cfg.base_quality = base;
    cfg.diurnal_amplitude = 0.0;
    cfg.noise_sigma = 0.0;
    const SignalTrace s = SignalTrace::generate(cfg, kDay);
    const double p = signal_energy_penalty_j(transfers, s,
                                             RadioPowerParams::wcdma());
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(ChannelAwareness, MovesDeferredTransfersToBetterSignal) {
  const auto profile = synth::make_user(synth::Archetype::kStudent, 2);
  const UserTrace full = synth::generate_trace(profile, 21, 42);
  const UserTrace training = full.slice_days(0, 14);
  const UserTrace eval = full.slice_days(14, 7);

  const policy::NetMasterPolicy nm(training, policy::NetMasterConfig{});
  sim::PolicyOutcome outcome = nm.run(eval);
  const SignalTrace signal =
      SignalTrace::generate(SignalConfig{}, eval.trace_end());
  const RadioPowerParams radio = RadioPowerParams::wcdma();

  const double before =
      signal_energy_penalty_j(outcome.transfers, signal, radio);
  const std::size_t moved =
      apply_channel_awareness(outcome, eval, signal, 10 * kMsPerMinute, radio);
  const double after =
      signal_energy_penalty_j(outcome.transfers, signal, radio);

  EXPECT_GT(moved, 0u);
  EXPECT_LT(after, before);
  // The adjusted schedule must still account cleanly.
  EXPECT_NO_THROW(sim::account(eval, outcome, radio));
}

TEST(ChannelAwareness, NeverMovesInPlaceTransfers) {
  const auto profile = synth::make_user(synth::Archetype::kStudent, 2);
  const UserTrace full = synth::generate_trace(profile, 21, 42);
  const UserTrace training = full.slice_days(0, 14);
  const UserTrace eval = full.slice_days(14, 7);

  const policy::NetMasterPolicy nm(training, policy::NetMasterConfig{});
  sim::PolicyOutcome outcome = nm.run(eval);
  const SignalTrace signal =
      SignalTrace::generate(SignalConfig{}, eval.trace_end());
  apply_channel_awareness(outcome, eval, signal, 10 * kMsPerMinute,
                          RadioPowerParams::wcdma());

  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    const NetworkActivity& act = eval.activities[t.activity_index];
    if (act.user_initiated) {
      EXPECT_EQ(t.start, act.start);  // user traffic untouched
    }
    if (t.start != act.start && t.start > act.start) {
      EXPECT_GE(t.start, act.start);  // causality for deferrals
    }
  }
}

TEST(ChannelAwareness, ZeroWindowIsNoop) {
  const auto profile = synth::make_user(synth::Archetype::kLightUser, 1);
  const UserTrace full = synth::generate_trace(profile, 14, 3);
  const UserTrace training = full.slice_days(0, 7);
  const UserTrace eval = full.slice_days(7, 7);
  const policy::NetMasterPolicy nm(training, policy::NetMasterConfig{});
  sim::PolicyOutcome outcome = nm.run(eval);
  const SignalTrace signal =
      SignalTrace::generate(SignalConfig{}, eval.trace_end());
  EXPECT_EQ(apply_channel_awareness(outcome, eval, signal, 0,
                                     RadioPowerParams::wcdma()), 0u);
  EXPECT_THROW(apply_channel_awareness(outcome, eval, signal, -1,
                                       RadioPowerParams::wcdma()), Error);
}

}  // namespace
}  // namespace netmaster::channel
