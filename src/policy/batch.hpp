// Batch-N aggregation ([2]): screen-off deferrable activities are held
// in a queue; when N are pending they are all released together. The
// queue also flushes when the user turns the screen on (the radio comes
// up anyway) and at the end of the horizon. §VI-C sweeps N from 0 to 10
// (Fig. 9); N <= 1 degenerates to the baseline for this traffic class.
#pragma once

#include <cstddef>
#include <string>

#include "policy/policy.hpp"

namespace netmaster::policy {

class BatchPolicy final : public Policy {
 public:
  explicit BatchPolicy(std::size_t max_batch);

  using Policy::run;

  std::string name() const override { return name_; }
  sim::PolicyOutcome run(const engine::TraceIndex& eval) const override;

 private:
  std::size_t max_batch_;
  std::string name_;  ///< formatted once: run() stamps every outcome
};

}  // namespace netmaster::policy
