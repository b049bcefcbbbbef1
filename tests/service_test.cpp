// Tests for the §V middleware's data path: the record store (DB + write
// cache), the trace→record derivation, the monitoring component, and
// tolerant reconstruction of damaged records for mining.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "mining/special_apps.hpp"
#include "service/monitoring.hpp"
#include "service/record_store.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::service {
namespace {

/// Every stored record, flash then cache, in append order.
std::vector<Record> records_of(const RecordStore& store) {
  std::vector<Record> out;
  store.for_each([&](const Record& r) { out.push_back(r); });
  return out;
}

UserTrace sample_trace() {
  return synth::generate_trace(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), 7, 42);
}

TEST(RecordStore, AppendAndRead) {
  RecordStore store;
  store.append({RecordKind::kScreenOn, 100, -1, 0, 0, 0, false, false});
  store.append({RecordKind::kScreenOff, 200, -1, 0, 0, 0, false, false});
  EXPECT_EQ(store.size(), 2u);
  const auto records = records_of(store);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, RecordKind::kScreenOn);
  EXPECT_EQ(records[1].time, 200);
}

TEST(RecordStore, CacheFlushesWhenFull) {
  // A tiny cache (room for exactly 2 records) flushes on the 2nd
  // append.
  RecordStore store(2 * sizeof(Record));
  EXPECT_EQ(store.flush_count(), 0u);
  store.append({RecordKind::kScreenOn, 1, -1, 0, 0, 0, false, false});
  EXPECT_EQ(store.cached(), 1u);
  store.append({RecordKind::kScreenOff, 2, -1, 0, 0, 0, false, false});
  EXPECT_EQ(store.cached(), 0u);
  EXPECT_EQ(store.flush_count(), 1u);
  EXPECT_EQ(store.bytes_flushed(), 2 * sizeof(Record));
  // Reads still see everything.
  EXPECT_EQ(records_of(store).size(), 2u);
}

TEST(RecordStore, AppendExactlyAtCapacityFlushesOnce) {
  // Capacity for exactly 3 records: appends 1 and 2 stay cached, the
  // 3rd lands exactly at capacity and triggers one flush of all 3.
  RecordStore store(3 * sizeof(Record));
  store.append({RecordKind::kScreenOn, 1, -1, 0, 0, 0, false, false});
  store.append({RecordKind::kScreenOff, 2, -1, 0, 0, 0, false, false});
  EXPECT_EQ(store.cached(), 2u);
  EXPECT_EQ(store.flush_count(), 0u);
  store.append({RecordKind::kScreenOn, 3, -1, 0, 0, 0, false, false});
  EXPECT_EQ(store.cached(), 0u);
  EXPECT_EQ(store.flush_count(), 1u);
  EXPECT_EQ(store.bytes_flushed(), 3 * sizeof(Record));
  EXPECT_EQ(store.size(), 3u);
}

TEST(RecordStore, RecordLargerThanCacheFlushesEveryAppend) {
  // A cache smaller than one record degenerates to capacity 1: every
  // append writes through immediately, nothing is ever cached, and no
  // record is lost.
  RecordStore store(sizeof(Record) / 2);
  for (TimeMs t = 1; t <= 5; ++t) {
    store.append({RecordKind::kNetworkSample, t, -1, 0, 0, 0, false,
                  false});
    EXPECT_EQ(store.cached(), 0u);
  }
  EXPECT_EQ(store.flush_count(), 5u);
  EXPECT_EQ(store.bytes_flushed(), 5 * sizeof(Record));
  EXPECT_EQ(records_of(store).size(), 5u);
}

TEST(RecordStore, RepeatedFillFlushCyclesAccountExactly) {
  // 10 fill/flush cycles of a 2-record cache plus one trailing partial
  // fill: counters must account every byte exactly once.
  RecordStore store(2 * sizeof(Record));
  const std::size_t cycles = 10;
  for (std::size_t i = 0; i < 2 * cycles; ++i) {
    store.append({RecordKind::kNetworkSample,
                  static_cast<TimeMs>(i + 1), -1, 0, 0, 0, false,
                  false});
  }
  EXPECT_EQ(store.flush_count(), cycles);
  EXPECT_EQ(store.bytes_flushed(), 2 * cycles * sizeof(Record));
  // Trailing partial fill: cached but not yet flushed...
  store.append({RecordKind::kScreenOn, 999, -1, 0, 0, 0, false, false});
  EXPECT_EQ(store.cached(), 1u);
  EXPECT_EQ(store.flush_count(), cycles);
  // ...until an explicit flush, which accounts the partial batch.
  store.flush();
  EXPECT_EQ(store.flush_count(), cycles + 1);
  EXPECT_EQ(store.bytes_flushed(), (2 * cycles + 1) * sizeof(Record));
  EXPECT_EQ(store.size(), 2 * cycles + 1);
  // Append order survives the cycles.
  const auto records = records_of(store);
  ASSERT_EQ(records.size(), 2 * cycles + 1);
  for (std::size_t i = 0; i < 2 * cycles; ++i) {
    EXPECT_EQ(records[i].time, static_cast<TimeMs>(i + 1));
  }
}

TEST(RecordStore, ExplicitFlushAndIdempotence) {
  RecordStore store;
  store.append({RecordKind::kScreenOn, 1, -1, 0, 0, 0, false, false});
  store.flush();
  EXPECT_EQ(store.flush_count(), 1u);
  store.flush();  // empty cache: no-op
  EXPECT_EQ(store.flush_count(), 1u);
}

TEST(RecordStore, ReconstructRebuildsValidEvents) {
  // Two feeds of the same trace rebuild it exactly: the monitoring
  // component (records in time order, interleaved with timer samples)
  // and the bare for_each_record derivation (category order).
  const UserTrace original = sample_trace();
  RecordStore monitored;
  MonitoringComponent monitor(monitored);
  monitor.observe(original);
  RecordStore direct;
  for_each_record(original, [&](const Record& r) { direct.append(r); });
  for (const RecordStore* store : {&monitored, &direct}) {
    const UserTrace rebuilt = store->reconstruct(
        original.user, original.num_days, original.app_names);
    EXPECT_NO_THROW(rebuilt.validate());
    EXPECT_EQ(rebuilt.sessions, original.sessions);
    EXPECT_EQ(rebuilt.usages, original.usages);
    EXPECT_EQ(rebuilt.activities, original.activities);
  }
}

TEST(RecordStore, ForEachRecordCutKeepsEventsStartingBefore) {
  const UserTrace t = sample_trace();
  const TimeMs cut = day_start(3);
  std::size_t expected = 0;
  for (const ScreenSession& s : t.sessions) expected += s.begin < cut ? 2 : 0;
  for (const AppUsage& u : t.usages) expected += u.time < cut ? 1 : 0;
  for (const NetworkActivity& n : t.activities) {
    expected += n.start < cut ? 1 : 0;
  }
  std::size_t emitted = 0;
  for_each_record(
      t,
      [&](const Record& r) {
        ++emitted;
        // A screen-off edge belongs to its session's begin.
        if (r.kind != RecordKind::kScreenOff) {
          EXPECT_LT(r.time, cut);
        }
      },
      cut);
  EXPECT_EQ(emitted, expected);
}

TEST(RecordStore, DamagedRecordsReconstructTolerantlyAndMine) {
  // A store holding records a valid trace cannot express — negative
  // byte deltas (counter reset), an unknown app id, a timestamp past
  // the horizon — must degrade the mined model, not kill the mine.
  const UserTrace t = sample_trace();
  RecordStore store;
  MonitoringComponent monitor(store);
  monitor.observe(t);
  store.append({RecordKind::kNetworkActivity, 100, 0, -5'000, -3, 10,
                false, true});
  store.append({RecordKind::kNetworkActivity, 200,
                static_cast<AppId>(t.app_names.size() + 4), 10, 10, 10,
                false, true});
  store.append({RecordKind::kAppForeground,
                t.trace_end() + kMsPerHour, 0, 0, 0, 5, false, false});

  // The strict path rejects the damaged reconstruction...
  const UserTrace raw = store.reconstruct(t.user, t.num_days, t.app_names);
  EXPECT_THROW(raw.validate(), Error);

  // ...the tolerant one repairs it and reports what it discarded.
  const fault::SanitizeResult repaired = fault::sanitize_trace(raw);
  EXPECT_FALSE(repaired.report.clean());
  EXPECT_GE(repaired.report.dropped_events + repaired.report.clamped_events,
            2u);
  EXPECT_LT(repaired.report.quality(), 1.0);

  // The repaired trace mines; the ledger's quality degrades the model.
  mining::HabitModel model = mining::HabitModel::mine(repaired.trace);
  EXPECT_GT(model.training_days(), 0);
  const double clean_confidence = model.overall_confidence();
  model.scale_confidence(repaired.report.quality());
  EXPECT_LT(model.overall_confidence(), clean_confidence);
  EXPECT_GT(mining::SpecialApps::detect(repaired.trace).count(), 0u);
}

TEST(Monitoring, HybridTriggerRecordCounts) {
  const UserTrace t = sample_trace();
  RecordStore store;
  MonitoringComponent monitor(store);
  const std::size_t emitted = monitor.observe(t);
  EXPECT_EQ(emitted, store.size());
  // Event records: 2 per session + usages + activities.
  EXPECT_EQ(monitor.event_records(),
            2 * t.sessions.size() + t.usages.size() +
                t.activities.size());
  // Time-triggered samples exist and dominate during screen-off (30 s
  // period over 7 days -> thousands).
  EXPECT_GT(monitor.sample_records(), 10'000u);
}

TEST(Monitoring, SamplePeriodValidation) {
  RecordStore store;
  MonitoringConfig bad;
  bad.screen_on_sample_ms = 0;
  EXPECT_THROW(MonitoringComponent(store, bad), Error);
}

}  // namespace
}  // namespace netmaster::service
