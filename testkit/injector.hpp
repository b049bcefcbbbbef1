// Deterministic fault injection at the trace boundary.
//
// `inject_faults` perturbs a clean UserTrace according to a FaultPlan.
// The output is deliberately allowed to be *invalid* — unsorted events,
// overlapping sessions, negative byte counts, timestamps outside the
// horizon — because that is exactly what downstream consumers must
// survive. Feed the result through `fault::sanitize_trace` to obtain
// the valid-but-degraded trace the graceful-degradation path consumes,
// or hand it to a tolerant consumer directly.
//
// Injection is a pure function of (clean trace, plan): per-spec RNG
// streams are derived from the plan seed, so the same plan always
// produces byte-identical corruption regardless of spec evaluation
// order elsewhere.
#pragma once

#include "testkit/fault_plan.hpp"
#include "trace/trace.hpp"

namespace netmaster::fault {

/// The perturbed trace plus the injection ledger.
struct InjectionResult {
  UserTrace trace;  ///< possibly invalid — see header comment
  FaultLog log;
};

/// Applies `plan` to a copy of `clean`. Throws netmaster::Error when a
/// spec rate lies outside [0, 1]; never throws for any trace content.
InjectionResult inject_faults(const UserTrace& clean,
                              const FaultPlan& plan);

}  // namespace netmaster::fault
