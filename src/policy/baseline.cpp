#include "policy/baseline.hpp"

namespace netmaster::policy {

sim::PolicyOutcome BaselinePolicy::run(
    const engine::TraceIndex& eval) const {
  sim::PolicyOutcome outcome;
  outcome.policy_name = name();
  const std::span<const NetworkActivity> activities = eval.activities();
  outcome.transfers.reserve(activities.size());
  for (std::size_t i = 0; i < activities.size(); ++i) {
    outcome.transfers.push_back(
        {i, activities[i].start, activities[i].duration});
  }
  return outcome;
}

}  // namespace netmaster::policy
