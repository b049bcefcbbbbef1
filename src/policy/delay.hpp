// Fixed-interval delay-and-aggregate (the related work's method, [10]
// uses 180 s windows and [2] 100 s). Screen-off deferrable activities
// arriving in window [k·d, (k+1)·d) are all released together at the
// window boundary (k+1)·d, during which the radio is held off. The
// §VI-C sweep varies d from 1 s to 600 s (Fig. 8).
#pragma once

#include <string>

#include "common/time.hpp"
#include "policy/policy.hpp"

namespace netmaster::policy {

class DelayPolicy final : public Policy {
 public:
  explicit DelayPolicy(DurationMs interval_ms);

  using Policy::run;

  std::string name() const override { return name_; }
  sim::PolicyOutcome run(const engine::TraceIndex& eval) const override;

  DurationMs interval_ms() const { return interval_ms_; }

 private:
  DurationMs interval_ms_;
  std::string name_;  ///< formatted once: run() stamps every outcome
};

}  // namespace netmaster::policy
