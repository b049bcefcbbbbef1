// Tests for the duty-cycle sleep schemes (§IV-C.2, Fig. 10a/b).
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "duty/duty_cycle.hpp"

namespace netmaster::duty {
namespace {

DutyConfig config(SleepScheme scheme,
                  DurationMs sleep = 30 * kMsPerSecond) {
  DutyConfig cfg;
  cfg.scheme = scheme;
  cfg.initial_sleep_ms = sleep;
  cfg.seed = 7;
  return cfg;
}

TEST(DutyCycler, ExponentialDoublesOnFruitlessWakes) {
  DutyCycler c(config(SleepScheme::kExponential));
  c.reset(0);
  EXPECT_EQ(c.next_wake(), 30'000);
  c.advance_fruitless();  // wake at 30 s + 2 s window, then sleep 60 s
  EXPECT_EQ(c.next_wake(), 32'000 + 60'000);
  c.advance_fruitless();
  EXPECT_EQ(c.current_sleep(), 120'000);
  c.advance_fruitless();
  EXPECT_EQ(c.current_sleep(), 240'000);
}

TEST(DutyCycler, ExponentialCapsAtMaxExponent) {
  DutyConfig cfg = config(SleepScheme::kExponential, 1000);
  cfg.max_backoff_exponent = 3;
  DutyCycler c(cfg);
  c.reset(0);
  for (int i = 0; i < 10; ++i) c.advance_fruitless();
  EXPECT_EQ(c.current_sleep(), 8000);  // 1000 << 3
}

TEST(DutyCycler, ActivityResetsBackoff) {
  DutyCycler c(config(SleepScheme::kExponential));
  c.reset(0);
  c.advance_fruitless();
  c.advance_fruitless();
  EXPECT_GT(c.current_sleep(), 30'000);
  c.notify_activity(500'000);
  EXPECT_EQ(c.current_sleep(), 30'000);
  EXPECT_EQ(c.next_wake(), 530'000);
}

TEST(DutyCycler, FixedStaysConstant) {
  DutyCycler c(config(SleepScheme::kFixed));
  c.reset(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.current_sleep(), 30'000);
    c.advance_fruitless();
  }
}

TEST(DutyCycler, RandomStaysInBand) {
  DutyCycler c(config(SleepScheme::kRandom));
  c.reset(0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(c.current_sleep(), 15'000);
    EXPECT_LE(c.current_sleep(), 45'000);
    c.advance_fruitless();
  }
}

TEST(DutyCycler, ConfigValidation) {
  DutyConfig bad = config(SleepScheme::kFixed);
  bad.initial_sleep_ms = 0;
  EXPECT_THROW(DutyCycler{bad}, Error);
  bad = config(SleepScheme::kFixed);
  bad.wake_window_ms = -1;
  EXPECT_THROW(DutyCycler{bad}, Error);
  bad = config(SleepScheme::kFixed);
  bad.max_backoff_exponent = -1;
  EXPECT_THROW(DutyCycler{bad}, Error);
}

TEST(IdleWindow, WakesStayInsideWindow) {
  // The second window ends exactly where the first 30 s sleep does: a
  // wake due at the window's end has no room, so it is not emitted
  // (no zero-length WakeEvent).
  for (const Interval window :
       {Interval{1000, 10 * kMsPerMinute}, Interval{0, 30 * kMsPerSecond}}) {
    for (SleepScheme scheme : {SleepScheme::kExponential,
                               SleepScheme::kFixed, SleepScheme::kRandom}) {
      const auto wakes = simulate_idle_window(config(scheme), window);
      for (const WakeEvent& w : wakes) {
        EXPECT_GE(w.time, window.begin);
        EXPECT_LT(w.time, window.end);
        EXPECT_GT(w.window, 0);
        EXPECT_LE(w.time + w.window, window.end);
        EXPECT_FALSE(w.productive);
      }
    }
  }
  EXPECT_THROW(simulate_idle_window(config(SleepScheme::kFixed),
                                    Interval{5, 5}),
               Error);
}

TEST(IdleWindow, FixedWakeCountMatchesPeriod) {
  // 30-minute window, 30 s sleep + 2 s wake: period 32 s -> 56 wakes.
  const auto wakes = simulate_idle_window(
      config(SleepScheme::kFixed), {0, 30 * kMsPerMinute});
  EXPECT_EQ(wakes.size(), 56u);
}

TEST(IdleWindow, ExponentialFarFewerThanFixed) {
  const Interval window{0, 30 * kMsPerMinute};
  const auto exp_wakes =
      simulate_idle_window(config(SleepScheme::kExponential), window);
  const auto fixed_wakes =
      simulate_idle_window(config(SleepScheme::kFixed), window);
  const auto random_wakes =
      simulate_idle_window(config(SleepScheme::kRandom), window);
  EXPECT_LT(exp_wakes.size(), fixed_wakes.size() / 4);
  EXPECT_LT(exp_wakes.size(), random_wakes.size() / 4);
}

TEST(IdleWindow, LongerSleepCutsRadioOnTime) {
  const Interval window{0, 30 * kMsPerMinute};
  DurationMs prev = std::numeric_limits<DurationMs>::max();
  for (DurationMs sleep_s : {5, 10, 30, 120, 360}) {
    const auto wakes = simulate_idle_window(
        config(SleepScheme::kExponential, sleep_s * kMsPerSecond),
        window);
    const DurationMs on = total_wake_time(wakes);
    EXPECT_LE(on, prev);
    prev = on;
  }
}

TEST(IdleWindow, RandomSchemeDeterministicPerSeed) {
  const Interval window{0, 10 * kMsPerMinute};
  const auto a = simulate_idle_window(config(SleepScheme::kRandom), window);
  const auto b = simulate_idle_window(config(SleepScheme::kRandom), window);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
  }
}

}  // namespace
}  // namespace netmaster::duty
