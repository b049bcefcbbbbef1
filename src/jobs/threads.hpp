// Worker-count resolution for the job system.
//
// The default worker count comes from the NETMASTER_THREADS environment
// variable (read once per process) falling back to hardware
// concurrency. Callers that need a specific count (thread-count
// matrices in tests, benches) pass max_threads explicitly.
#pragma once

#include <cstdlib>
#include <thread>

namespace netmaster {

/// Default worker cap when a caller passes 0: the NETMASTER_THREADS
/// environment variable (read once per process) when set to a positive
/// integer, else hardware_concurrency. Lets CI rerun the whole suite
/// single-threaded to flush nondeterminism without plumbing a thread
/// count through every entry point.
inline unsigned default_max_threads() {
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
