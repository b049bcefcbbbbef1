// Combined "naive delay and batch" ([10]/[2], the Fig. 7 comparison
// arms): screen-off deferrable activities queue up and the whole queue
// is released when the oldest entry has waited the configured interval
// — or earlier, when the user turns the screen on and the radio comes
// up anyway. This is the strongest fixed-interval baseline the paper
// compares against (22.54% average energy saving).
#pragma once

#include <string>

#include "common/time.hpp"
#include "policy/policy.hpp"

namespace netmaster::policy {

class DelayBatchPolicy final : public Policy {
 public:
  explicit DelayBatchPolicy(DurationMs interval_ms);

  using Policy::run;

  std::string name() const override { return name_; }
  sim::PolicyOutcome run(const engine::TraceIndex& eval) const override;

  DurationMs interval_ms() const { return interval_ms_; }

 private:
  DurationMs interval_ms_;
  std::string name_;  ///< formatted once: run() stamps every outcome
};

}  // namespace netmaster::policy
