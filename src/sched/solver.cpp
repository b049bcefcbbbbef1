#include "sched/solver.hpp"

#include <string>

#include "common/error.hpp"

namespace netmaster::sched {

const char* to_string(SolverChoice choice) {
  switch (choice) {
    case SolverChoice::kFptas:
      return "fptas";
    case SolverChoice::kExact:
      return "exact";
    case SolverChoice::kGreedy:
      return "greedy";
    case SolverChoice::kAuto:
      return "auto";
  }
  return "unknown";
}

SolverChoice parse_solver_choice(std::string_view name) {
  if (name == "fptas") return SolverChoice::kFptas;
  if (name == "exact") return SolverChoice::kExact;
  if (name == "greedy") return SolverChoice::kGreedy;
  if (name == "auto") return SolverChoice::kAuto;
  NM_REQUIRE(false, "unknown solver choice: " + std::string(name));
}

void SolverOptions::validate() const {
  NM_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
}

SchedWorkspace& thread_workspace() {
  thread_local SchedWorkspace workspace;
  return workspace;
}

}  // namespace netmaster::sched
