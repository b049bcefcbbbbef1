#include "testkit/fault_plan.hpp"

namespace netmaster::fault {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropRecord:
      return "drop-record";
    case FaultKind::kDuplicateRecord:
      return "duplicate-record";
    case FaultKind::kReorderRecords:
      return "reorder-records";
    case FaultKind::kFieldCorruption:
      return "field-corruption";
    case FaultKind::kClockSkew:
      return "clock-skew";
    case FaultKind::kCounterReset:
      return "counter-reset";
    case FaultKind::kMissingScreenEdge:
      return "missing-screen-edge";
    case FaultKind::kTruncateDays:
      return "truncate-days";
  }
  return "unknown";
}

const std::array<FaultKind, kNumFaultKinds>& all_fault_kinds() {
  static const std::array<FaultKind, kNumFaultKinds> kinds = {
      FaultKind::kDropRecord,        FaultKind::kDuplicateRecord,
      FaultKind::kReorderRecords,    FaultKind::kFieldCorruption,
      FaultKind::kClockSkew,         FaultKind::kCounterReset,
      FaultKind::kMissingScreenEdge, FaultKind::kTruncateDays,
  };
  return kinds;
}

}  // namespace netmaster::fault
