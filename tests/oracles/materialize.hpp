// The inverse of mem::TraceColumns::build, kept as a test oracle.
//
// Nothing in the library turns columns back into an AoS UserTrace: the
// replay and accounting paths read the columns directly. mem_test uses
// this reconstruction to check that build() loses nothing, field by
// field. Nothing outside tests/ calls it.
#pragma once

#include "mem/soa.hpp"
#include "trace/trace.hpp"

namespace netmaster::oracles {

/// Reconstructs the AoS trace: equal to the build() input in every
/// field but the app-name table, which the columns do not carry.
inline UserTrace materialize(const mem::TraceColumns& columns) {
  UserTrace trace;
  trace.user = columns.user;
  trace.num_days = columns.num_days;
  trace.sessions.assign(columns.sessions.begin(), columns.sessions.end());
  trace.usages.assign(columns.usages.begin(), columns.usages.end());
  trace.activities.assign(columns.activities.begin(),
                          columns.activities.end());
  return trace;
}

}  // namespace netmaster::oracles
