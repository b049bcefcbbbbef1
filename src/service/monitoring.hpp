// Monitoring component (§V-A).
//
// Records the four feature groups (time, App, cellular network, screen)
// into the RecordStore using the paper's hybrid trigger model:
//   - event triggers for state variables (screen transitions, app
//     foreground changes),
//   - time triggers for byte counters — a 1-second timer while the
//     screen is on and a 30-second timer while it is off.
//
// On a real phone the triggers are Android broadcasts; here the
// component replays a ground-truth UserTrace through the same record
// pipeline, producing exactly the store contents the mining component
// would see in deployment.
#pragma once

#include <cstddef>

#include "service/record_store.hpp"
#include "trace/trace.hpp"

namespace netmaster::service {

class MonitoringComponent {
 public:
  explicit MonitoringComponent(RecordStore& store) : store_(store) {}

  /// Replays a trace through the trigger pipeline, appending records.
  /// Returns the number of records emitted.
  std::size_t observe(const UserTrace& trace);

  std::size_t event_records() const { return event_records_; }
  std::size_t sample_records() const { return sample_records_; }

 private:
  RecordStore& store_;
  std::size_t event_records_ = 0;
  std::size_t sample_records_ = 0;
};

}  // namespace netmaster::service
