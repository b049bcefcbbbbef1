#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"

namespace netmaster::obs {

namespace {

void atomic_add(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (x < cur && !target.compare_exchange_weak(
                        cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double x) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (x > cur && !target.compare_exchange_weak(
                        cur, x, std::memory_order_relaxed)) {
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Live-registry set guarding per-thread span sinks against flushing
/// into an already-destroyed test registry.
std::mutex& alive_mutex() {
  static std::mutex m;
  return m;
}
std::set<const Registry*>& alive_set() {
  static std::set<const Registry*> s;
  return s;
}

}  // namespace

void Gauge::add(double x) noexcept { atomic_add(value_, x); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1),
      min_(kInf),
      max_(-kInf) {
  NM_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  NM_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "histogram bounds must be strictly increasing");
}

void Histogram::add(double x) noexcept {
  if (std::isnan(x)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  NM_REQUIRE(i < counts_.size(), "histogram bucket out of range");
  return counts_[i].load(std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  NM_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double in_bucket = static_cast<double>(
        counts_[b].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      // Interpolate inside the covering bucket; the overflow bucket
      // and the edges are clamped to the observed range.
      const double lo = b == 0 ? min() : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : max();
      const double frac =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return std::clamp(lo + (hi - lo) * frac, min(), max());
    }
    cumulative += in_bucket;
  }
  return max();
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
}

std::vector<double> fraction_bounds() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

void SpanStats::merge(const SpanStats& other) {
  count += other.count;
  wall_ms += other.wall_ms;
  cpu_ms += other.cpu_ms;
  max_wall_ms = std::max(max_wall_ms, other.max_wall_ms);
}

Registry::Registry() {
  const std::lock_guard<std::mutex> lock(alive_mutex());
  alive_set().insert(this);
}

Registry::~Registry() {
  const std::lock_guard<std::mutex> lock(alive_mutex());
  alive_set().erase(this);
}

Registry& Registry::global() {
  // Leaked on purpose: per-thread span sinks may flush during thread
  // teardown after static destructors would have run.
  static Registry* g = new Registry();
  return *g;
}

bool Registry::is_alive(const Registry* r) {
  const std::lock_guard<std::mutex> lock(alive_mutex());
  return alive_set().count(r) != 0;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

void Registry::merge_spans(
    const std::map<std::pair<std::string, std::string>, SpanStats>& spans) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, stats] : spans) spans_[key].merge(stats);
}

std::vector<Registry::CounterRow> Registry::counter_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CounterRow> rows;
  rows.reserve(counters_.size());
  for (const auto& [name, c] : counters_) rows.push_back({name, c->value()});
  return rows;
}

std::vector<Registry::GaugeRow> Registry::gauge_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GaugeRow> rows;
  rows.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) rows.push_back({name, g->value()});
  return rows;
}

std::vector<Registry::HistogramRow> Registry::histogram_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramRow> rows;
  rows.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) rows.push_back({name, h.get()});
  return rows;
}

std::vector<Registry::SpanRow> Registry::span_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRow> rows;
  rows.reserve(spans_.size());
  for (const auto& [key, stats] : spans_) {
    rows.push_back({key.first, key.second, stats});
  }
  return rows;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  spans_.clear();
}

}  // namespace netmaster::obs
