// RAII timing: lightweight spans.
//
// A SpanScope measures one named region (wall + thread-CPU time) and
// attributes it to the enclosing span on the same thread (parent
// tracking via a per-thread stack). Finished spans are aggregated into
// a thread-local table — the hot path takes no locks and allocates at
// most a map node per distinct (name, parent) pair per thread — and
// merged into the owning Registry when the thread exits or when
// flush_thread_spans() is called (exporters do this automatically).
// Spans recorded by threads that are still running and have not
// flushed are invisible to a snapshot; a job-system task flushes before
// it completes, so fleet/bench exports always see every worker's spans.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"

namespace netmaster::obs {

/// Wall-clock milliseconds of thread CPU time consumed so far.
double thread_cpu_ms();

/// RAII span: name + parent (enclosing span on this thread) + wall and
/// thread-CPU time, aggregated per thread and merged into the registry
/// (see file comment for the flush model).
class SpanScope {
 public:
  /// Records into Registry::global().
  explicit SpanScope(std::string name);
  SpanScope(Registry& registry, std::string name);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Registry* registry_;
  std::string name_;
  std::chrono::steady_clock::time_point wall_start_;
  double cpu_start_ms_;
};

/// Merges the calling thread's span aggregates into their registries.
/// Cheap no-op when the thread has recorded nothing since last flush.
void flush_thread_spans();

}  // namespace netmaster::obs
