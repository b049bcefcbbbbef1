// Observability core: a thread-safe metrics registry.
//
// Instruments are cheap enough for hot paths: counters and gauges are
// single relaxed atomics, and histograms are fixed-bucket arrays of
// atomics (lock-free add) whose interpolated quantiles are the only
// quantiles the repo exports. The registry itself takes a mutex only
// on instrument *registration*; call sites cache the returned
// reference (instruments live as long as their registry), so steady
// state never touches the registry lock.
//
// `Registry::global()` is the process-wide registry every subsystem
// records into; tests construct private registries for isolation.
// Snapshots are exported by obs/export.hpp (human table, JSON lines).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace netmaster::obs {

/// Monotonic event counter. add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value; add() is a CAS loop.
class Gauge {
 public:
  void set(double x) noexcept { value_.store(x, std::memory_order_relaxed); }
  void add(double x) noexcept;
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: one atomic per bucket plus streaming
/// count/sum/min/max, all updated lock-free. Bucket i counts samples
/// in (bounds[i-1], bounds[i]] with an implicit +inf overflow bucket;
/// the exporters accumulate these into Prometheus-style cumulative
/// `le` counts. NaN samples are rejected (counted, never binned) so a
/// poisoned measurement cannot corrupt the sketch.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double x) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket i of bounds().size() + 1; the last is the +inf overflow.
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  double min() const noexcept;
  double max() const noexcept;
  double mean() const noexcept;

  /// Quantile estimate by linear interpolation inside the covering
  /// bucket, clamped to the observed [min, max]. q in [0, 1]; 0 when
  /// the histogram is empty.
  double quantile(double q) const;

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Standard bucket layouts.
std::vector<double> fraction_bounds();  ///< 0.1 … 1.0 in tenths

/// Wall/CPU aggregate of one span name under one parent.
struct SpanStats {
  std::uint64_t count = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double max_wall_ms = 0.0;

  void merge(const SpanStats& other);
};

/// Named-instrument registry. Lookup registers on first use and
/// returns a reference that stays valid for the registry's lifetime.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (never destroyed).
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is used only on first registration; later lookups
  /// of the same name return the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Folds a thread's span aggregates in (called by obs/span.cpp when
  /// a thread flushes; key is {name, parent}).
  void merge_spans(
      const std::map<std::pair<std::string, std::string>, SpanStats>& spans);

  // ---- Snapshot access (exporters). Instrument pointers are stable;
  // span rows are copied out under the lock. ----
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    const Histogram* histogram = nullptr;
  };
  struct SpanRow {
    std::string name;
    std::string parent;
    SpanStats stats;
  };
  std::vector<CounterRow> counter_rows() const;
  std::vector<GaugeRow> gauge_rows() const;
  std::vector<HistogramRow> histogram_rows() const;
  std::vector<SpanRow> span_rows() const;

  /// Test helper: zeroes counters/gauges and drops histogram contents
  /// and span aggregates. Registered instrument references stay valid.
  void reset();

  /// True while `r` has not been destroyed. Lets per-thread span sinks
  /// (which may outlive a test-local registry) skip a dead target
  /// instead of dereferencing it.
  static bool is_alive(const Registry* r);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::pair<std::string, std::string>, SpanStats> spans_;
};

}  // namespace netmaster::obs
