// In-memory span recorder of the traced run.
//
// Spans are opened around calls into the program's layers from the
// benchmark's own code. Each carries a name, start and end, the span
// that was open on the same thread when it began (its parent) and a
// per-cell or per-request id. Spans stay in memory until write() at the
// end of the run; self time is a span's duration minus what its
// children cover. The untraced run never constructs a Tracer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::size_t parent = kNoParent;
    double start_ns = 0.0;  ///< since the tracer was created
    double end_ns = 0.0;
  };

  Tracer();

  /// Opens a span on the calling thread and returns its handle.
  std::size_t begin(const std::string& name, std::uint64_t id);
  void end(std::size_t span);
  /// Records a finished span whose ends were stamped on different
  /// threads (a request from its due time to its reply).
  void add(const std::string& name, std::uint64_t id,
           Clock::time_point start, Clock::time_point end,
           std::size_t parent);

  /// Durations (ms) of every finished span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Sum of the durations of every span called `name`.
  double total_ms(const std::string& name) const;
  /// Per-name totals: count, wall, self (duration minus children).
  struct Summary {
    std::uint64_t count = 0;
    double wall_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summarize() const;

  /// Writes every span as one JSON object per line, and prints the
  /// per-name summary (count, wall, self) to stdout.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const std::string& name, std::uint64_t id)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->begin(name, id) : 0) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

}  // namespace perfbench
