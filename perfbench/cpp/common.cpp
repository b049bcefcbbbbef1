#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

double median(std::vector<double> sample) { return quantile(sample, 0.5); }

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

std::map<std::string, std::uint64_t> counter_snapshot() {
  // Span aggregates live in per-thread tables until flushed; the job
  // system flushes after every task, this covers the calling thread.
  netmaster::obs::flush_thread_spans();
  const netmaster::obs::Registry& reg = netmaster::obs::Registry::global();
  std::map<std::string, std::uint64_t> out;
  for (const auto& row : reg.counter_rows()) out[row.name] = row.value;
  for (const auto& row : reg.span_rows()) {
    out["span." + row.name] += row.stats.count;
  }
  return out;
}

std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : after) {
    out[name] = value - count_of(before, name);
  }
  return out;
}

std::uint64_t count_of(const std::map<std::string, std::uint64_t>& snap,
                       const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (i * 8)) & 0xffULL;
    h_ *= 1099511628211ULL;
  }
}

void Digest::mix_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(std::max(n, 0)));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::uint64_t state = seed;
  for (std::size_t i = order.size(); i > 1; --i) {
    // SplitMix64 step.
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::swap(order[i - 1], order[z % i]);
  }
  return order;
}

}  // namespace perfbench
