#include "obs/span.hpp"

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#endif

namespace netmaster::obs {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per-thread span state for one registry: the open-span stack (for
/// parent attribution) and the finished-span aggregates awaiting merge.
struct RegistrySink {
  std::vector<std::string> stack;
  std::map<std::pair<std::string, std::string>, SpanStats> pending;
};

struct ThreadSinks {
  std::unordered_map<Registry*, RegistrySink> by_registry;

  ~ThreadSinks() { flush(); }

  void flush() {
    for (auto& [registry, sink] : by_registry) {
      if (sink.pending.empty()) continue;
      // A test-local registry may die before this thread does; the
      // alive check keeps the late flush from touching freed memory.
      if (Registry::is_alive(registry)) registry->merge_spans(sink.pending);
      sink.pending.clear();
    }
  }
};

ThreadSinks& thread_sinks() {
  thread_local ThreadSinks sinks;
  return sinks;
}

}  // namespace

double thread_cpu_ms() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
  }
#endif
  return 0.0;
}

SpanScope::SpanScope(std::string name)
    : SpanScope(Registry::global(), std::move(name)) {}

SpanScope::SpanScope(Registry& registry, std::string name)
    : registry_(&registry),
      name_(std::move(name)),
      wall_start_(Clock::now()),
      cpu_start_ms_(thread_cpu_ms()) {
  thread_sinks().by_registry[registry_].stack.push_back(name_);
}

SpanScope::~SpanScope() {
  const double wall = ms_between(wall_start_, Clock::now());
  const double cpu = thread_cpu_ms() - cpu_start_ms_;
  RegistrySink& sink = thread_sinks().by_registry[registry_];
  // Unwind to this span even if an exception skipped inner pops.
  while (!sink.stack.empty() && sink.stack.back() != name_) {
    sink.stack.pop_back();
  }
  if (!sink.stack.empty()) sink.stack.pop_back();
  const std::string parent = sink.stack.empty() ? "" : sink.stack.back();
  SpanStats& agg = sink.pending[{name_, parent}];
  ++agg.count;
  agg.wall_ms += wall;
  agg.cpu_ms += cpu > 0.0 ? cpu : 0.0;
  if (wall > agg.max_wall_ms) agg.max_wall_ms = wall;
}

void flush_thread_spans() { thread_sinks().flush(); }

}  // namespace netmaster::obs
