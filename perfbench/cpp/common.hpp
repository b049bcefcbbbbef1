// Shared plumbing of the repository benchmark: arguments, sample
// statistics, the result record every workload fills, and the exact
// work counters read from obs::Registry::global().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: corrupt the expected digest so the gate must trip.
  bool corrupt_digest = false;
};

/// Median of a sample (0 when empty).
double median(std::vector<double> sample);
/// q-quantile (0..1) by linear interpolation between order statistics.
double quantile(std::vector<double> sample, double q);

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the metrics it measured plus
/// the operation ledger and the correctness verdict.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Human-readable reasons for `correct == false`.
  std::vector<std::string> errors;
  /// Digest of the generated inputs (self-test: the seed must move it).
  std::string inputs_digest;
  /// Exact work counters, printed to stderr for run-to-run comparison.
  std::map<std::string, std::uint64_t> counters;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why);
};

/// Snapshot of the deterministic work counters of the obs registry
/// (counters plus the call count of every span name).
std::map<std::string, std::uint64_t> counter_snapshot();
/// after - before, key by key (keys missing in `before` count as 0).
std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after);
/// Value of `name` in a snapshot, 0 when absent.
std::uint64_t count_of(const std::map<std::string, std::uint64_t>& snap,
                       const std::string& name);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// 64-bit FNV-1a accumulator for digests of results and inputs.
class Digest {
 public:
  void mix(std::uint64_t v);
  void mix_double(double v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Synthesis seed of every workload's trace corpus. The corpus is fixed
/// so that runs with different --seed values do the same work and stay
/// comparable; --seed shuffles how the work arrives (permutation()).
inline constexpr std::uint64_t kCorpusSeed = 20140901;

/// A seed-determined shuffle of 0..n-1 (Fisher-Yates over SplitMix64).
std::vector<int> permutation(int n, std::uint64_t seed);

Result run_fleet_standard(const Args& args);
Result run_fleet_replay_spill(const Args& args);
Result run_daemon_stream(const Args& args);

}  // namespace perfbench
