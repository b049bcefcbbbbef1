// The middleware's database (§V, "DB" in Fig. 6) with the §V-A write
// cache: "frequently writing records to flash is energy-inefficient...
// we use 500KB cache in memory to batch multiple writes together."
//
// Records are the four §V-A features (time, app, cellular network,
// screen), appended by the monitoring component and replayed by the
// mining component. The store models the memory-cache/flash split:
// appends land in the cache; when the cache exceeds its capacity it
// flushes to "flash" (an in-memory backing vector plus counters that
// stand in for the storage energy cost).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/time.hpp"
#include "fault/sanitize.hpp"
#include "trace/trace.hpp"

namespace netmaster::service {

/// Record kinds, mirroring the §V-A feature groups.
enum class RecordKind : std::uint8_t {
  kScreenOn,
  kScreenOff,
  kAppForeground,   ///< app moved to the foreground (event trigger)
  kNetworkSample,   ///< time-triggered rx/tx byte-counter sample
  kNetworkActivity, ///< reconstructed transfer (start + bytes)
};

/// One monitoring record. Fixed-size by design (what a row in the
/// on-phone SQLite table would be).
struct Record {
  RecordKind kind = RecordKind::kScreenOn;
  TimeMs time = 0;
  AppId app = -1;
  std::int64_t bytes_down = 0;
  std::int64_t bytes_up = 0;
  DurationMs duration = 0;
  bool user_initiated = false;
  bool deferrable = false;

  friend bool operator==(const Record&, const Record&) = default;
};

/// Calls emit(record) for each event record monitoring derives from a
/// trace: a screen-on and a screen-off edge per session, one foreground
/// record per app usage, one activity record per transfer. Events
/// starting at or after `until` are left out. The records come in that
/// category order, not in time order; each caller imposes its own.
template <typename Emit>
void for_each_record(const UserTrace& trace, Emit&& emit,
                     TimeMs until = std::numeric_limits<TimeMs>::max()) {
  for (const ScreenSession& s : trace.sessions) {
    if (s.begin >= until) continue;
    emit(Record{RecordKind::kScreenOn, s.begin, -1, 0, 0, 0, false, false});
    emit(Record{RecordKind::kScreenOff, s.end, -1, 0, 0, 0, false, false});
  }
  for (const AppUsage& u : trace.usages) {
    if (u.time >= until) continue;
    emit(Record{RecordKind::kAppForeground, u.time, u.app, 0, 0, u.duration,
                false, false});
  }
  for (const NetworkActivity& n : trace.activities) {
    if (n.start >= until) continue;
    emit(Record{RecordKind::kNetworkActivity, n.start, n.app, n.bytes_down,
                n.bytes_up, n.duration, n.user_initiated, n.deferrable});
  }
}

/// Rebuilds a UserTrace from records fed in append order: screen edges
/// pair in that order (the first ON opens, the first OFF closes; a
/// session still open at the end closes at the horizon), and each
/// stream is stably sorted by time. Makes no validity promises —
/// HabitModel::mine and NetMasterPolicy accept the raw result and
/// repair it themselves. A caller that filters or shifts a store's
/// records feeds them here directly instead of copying them into a
/// second store first.
class TraceRebuilder {
 public:
  TraceRebuilder(UserId user, int num_days,
                 std::vector<std::string> app_names);

  void add(const Record& record);

  /// The rebuilt trace; the rebuilder is spent.
  UserTrace finish() &&;

 private:
  UserTrace trace_;
  TimeMs screen_on_since_ = -1;
};

/// Append-only store with a bounded memory write-cache.
class RecordStore {
 public:
  /// `cache_bytes` is the memory cache capacity (the paper uses 500 KB).
  explicit RecordStore(std::size_t cache_bytes = 500 * 1024);

  /// Appends a record to the cache; flushes to flash when full.
  void append(const Record& record);

  /// Forces any cached records to flash.
  void flush();

  /// Calls visit(record) for every durably-stored record, then for
  /// whatever is still cached: append order. (Reads see the cache —
  /// queries must not lose the most recent events.) Nothing is copied.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Record& r : flash_) visit(r);
    for (const Record& r : cache_) visit(r);
  }

  std::size_t size() const { return flash_.size() + cache_.size(); }
  std::size_t cached() const { return cache_.size(); }

  /// Number of cache->flash flushes so far (each models one expensive
  /// flash write burst).
  std::size_t flush_count() const { return flush_count_; }
  /// Total bytes pushed to flash.
  std::size_t bytes_flushed() const { return bytes_flushed_; }

  /// Rebuilds a UserTrace (for the mining component) from the records,
  /// given the app table and day count: a TraceRebuilder fed every
  /// record in append order.
  UserTrace reconstruct(UserId user, int num_days,
                        std::vector<std::string> app_names) const;

  /// reconstruct(), then validate: throws on records a valid trace
  /// cannot hold (strict path).
  UserTrace to_trace(UserId user, int num_days,
                     std::vector<std::string> app_names) const;

  /// Tolerant reconstruction: runs the same rebuild, then repairs the
  /// result through fault::sanitize_trace instead of throwing. The
  /// repair ledger tells the mining layer how much monitoring data had
  /// to be discarded.
  fault::SanitizeResult to_trace_tolerant(
      UserId user, int num_days,
      std::vector<std::string> app_names) const;

 private:
  std::size_t cache_capacity_;
  std::vector<Record> cache_;
  std::vector<Record> flash_;
  std::size_t flush_count_ = 0;
  std::size_t bytes_flushed_ = 0;
};

}  // namespace netmaster::service
