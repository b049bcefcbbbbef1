// Worker-count resolution for the job system.
//
// The default worker count comes from the NETMASTER_THREADS environment
// variable (read once per process) falling back to hardware
// concurrency. Tests exercising thread-count matrices inside one binary
// can't re-set the environment, so set_default_max_threads() provides
// an explicit process-wide override that wins over both.
#pragma once

#include <atomic>
#include <cstdlib>
#include <thread>

namespace netmaster {

namespace detail {
inline std::atomic<unsigned>& thread_override() {
  static std::atomic<unsigned> value{0};
  return value;
}
}  // namespace detail

/// Overrides default_max_threads() for the whole process (0 clears the
/// override and restores the NETMASTER_THREADS / hardware default).
/// Intended for tests running worker-count matrices in one binary; the
/// shared worker pool is sized from the value in effect at first use.
inline void set_default_max_threads(unsigned n) {
  detail::thread_override().store(n, std::memory_order_relaxed);
}

/// Default worker cap when a caller passes 0: the explicit override
/// when set, else the NETMASTER_THREADS environment variable (read once
/// per process) when set to a positive integer, else
/// hardware_concurrency. Lets CI rerun the whole suite single-threaded
/// to flush nondeterminism without plumbing a thread count through
/// every entry point.
inline unsigned default_max_threads() {
  const unsigned forced =
      detail::thread_override().load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const unsigned cached = [] {
    if (const char* env = std::getenv("NETMASTER_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<unsigned>(v);
    }
    return std::thread::hardware_concurrency();
  }();
  return cached;
}

}  // namespace netmaster
