// Tests for eval::UserStore and the spill-to-disk fleet path: LRU
// eviction under a byte cap, lossless rehydration, Pin safety across
// evictions, a capped session holding at most half the resident
// bytes, the replay index serving its columns while the traces are
// spilled, bit-for-bit fleet determinism with and without spilling, at
// most one rehydration per user per grid and none for a training-free
// roster, and a corrupted spill file failing only the cells that read
// its row's traces. The session's habit memo spares later NetMaster
// grids every rehydration and retries a user whose pin failed. Set-up itself decodes no blob, leaves the same
// users hydrated at every worker count, and fails every user alike
// when the spill directory cannot be created.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "eval/user_store.hpp"
#include "mem/blob.hpp"
#include "obs/metrics.hpp"
#include "policy/baseline.hpp"
#include "synth/presets.hpp"

namespace netmaster::eval {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.train_days = 7;
  config.eval_days = 7;
  config.seed = 7;
  return config;
}

std::vector<synth::UserProfile> small_fleet(std::size_t n) {
  std::vector<synth::UserProfile> profiles;
  for (std::size_t i = 0; i < n; ++i) {
    profiles.push_back(synth::make_user(
        static_cast<synth::Archetype>(i % 3), static_cast<UserId>(i + 1)));
  }
  return profiles;
}

/// Bit-for-bit cell equality: same transfers, same accounting, same
/// doubles.
void expect_same_cell(const FleetCell& a, const FleetCell& b,
                      std::size_t c) {
  EXPECT_EQ(a.failed, b.failed) << "cell " << c;
  EXPECT_EQ(a.policy, b.policy) << "cell " << c;
  EXPECT_EQ(a.report.energy_j, b.report.energy_j) << "cell " << c;
  EXPECT_EQ(a.report.radio_on_ms, b.report.radio_on_ms) << "cell " << c;
  EXPECT_EQ(a.energy_saving, b.energy_saving) << "cell " << c;
  EXPECT_EQ(a.radio_on_fraction, b.radio_on_fraction) << "cell " << c;
}

TEST(UserStore, DefaultConfigKeepsEverythingResident) {
  UserStore store;  // cap 0: no spilling, no disk
  store.resize(2);
  VolunteerTraces traces = make_traces(small_fleet(1)[0], small_config());
  const UserTrace eval_copy = traces.eval;
  store.admit(0, std::move(traces));
  store.admit(1, make_traces(small_fleet(2)[1], small_config()));

  EXPECT_FALSE(store.spill_enabled());
  EXPECT_TRUE(store.spill_dir().empty());
  EXPECT_EQ(store.resident_count(), 2u);
  EXPECT_EQ(store.evictions(), 0u);
  const UserStore::Pin pin = store.pin(0);
  EXPECT_EQ(pin.eval().activities, eval_copy.activities);
}

TEST(UserStore, EvictsUnderCapAndRehydratesLosslessly) {
  UserStoreConfig config;
  config.cache_cap_bytes = 1;  // evict everything evictable
  UserStore store(config);
  const std::vector<synth::UserProfile> profiles = small_fleet(3);
  store.resize(3);
  std::vector<VolunteerTraces> originals;
  for (std::size_t u = 0; u < 3; ++u) {
    originals.push_back(make_traces(profiles[u], small_config()));
    store.admit(u, originals[u]);
  }
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_LE(store.resident_count(), 1u);
  EXPECT_FALSE(store.spill_dir().empty());

  // Rehydration returns bit-identical traces, any number of times, in
  // any order.
  for (const std::size_t u : {2u, 0u, 1u, 0u}) {
    const UserStore::Pin pin = store.pin(u);
    EXPECT_EQ(pin.training().activities, originals[u].training.activities);
    EXPECT_EQ(pin.training().sessions, originals[u].training.sessions);
    EXPECT_EQ(pin.eval().activities, originals[u].eval.activities);
    EXPECT_EQ(pin.eval().usages, originals[u].eval.usages);
    EXPECT_EQ(pin.eval().app_names, originals[u].eval.app_names);
  }
}

TEST(UserStore, PinKeepsAnEvictedHydrationAlive) {
  UserStoreConfig config;
  config.cache_cap_bytes = 1;
  UserStore store(config);
  store.resize(2);
  const std::vector<synth::UserProfile> profiles = small_fleet(2);
  const VolunteerTraces original = make_traces(profiles[0], small_config());
  store.admit(0, original);

  const UserStore::Pin pin = store.pin(0);
  EXPECT_EQ(store.evictions(), 0u);
  store.admit(1, make_traces(profiles[1], small_config()));
  store.pin(1);  // touches 1; 0 becomes the LRU victim

  // Slot 0's hydration was evicted, but the pin still holds the bytes
  // — reading through it stays valid.
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.resident_count(), 1u);
  EXPECT_EQ(pin.eval().activities, original.eval.activities);

  // A fresh pin rehydrates into a fresh hydration.
  const UserStore::Pin again = store.pin(0);
  EXPECT_EQ(again.eval().activities, original.eval.activities);
}

TEST(UserStore, RespectsCallerSpillDirectory) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nm_store_test_dir";
  std::filesystem::remove_all(dir);
  {
    UserStoreConfig config;
    config.cache_cap_bytes = 1;
    config.spill_dir = dir.string();
    UserStore store(config);
    store.resize(1);
    store.admit(0, make_traces(small_fleet(1)[0], small_config()));
    EXPECT_EQ(store.spill_dir(), dir);
    EXPECT_FALSE(std::filesystem::is_empty(dir));
  }
  // The store removes its blobs but leaves the caller's directory.
  EXPECT_TRUE(std::filesystem::exists(dir));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(SpillFleet, IndexReplaysWhileTracesAreSpilled) {
  // The replay index is self-contained: with most users' traces
  // evicted to disk, every index still serves its columns, and they
  // match the rehydrated evaluation trace.
  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 1;
  const EvalSession session(small_fleet(4), config);
  ASSERT_EQ(session.num_ok(), 4u);
  EXPECT_GT(session.store().evictions(), 0u);
  EXPECT_LT(session.store().resident_count(), session.num_users());

  for (std::size_t u = 0; u < session.num_users(); ++u) {
    const engine::TraceIndex& index = session.index(u);
    EXPECT_GT(index.sessions().size(), 0u);
    const UserStore::Pin pin = session.traces(u);
    EXPECT_NO_THROW(index.check_invariants(pin.eval()));
  }
}

TEST(SpillFleet, ResultsBitIdenticalWithAndWithoutSpill) {
  const std::vector<synth::UserProfile> profiles = small_fleet(5);
  const std::vector<PolicySpec> suite =
      standard_policy_suite(small_config().netmaster);

  ExperimentConfig resident_config = small_config();
  const EvalSession resident(profiles, resident_config);
  const FleetReport baseline = run_fleet(resident, suite);

  ExperimentConfig spill_config = small_config();
  spill_config.store.cache_cap_bytes = 4096;  // far below the fleet
  const EvalSession spilled(profiles, spill_config);

  // The whole point of the cap: the fleet's aggregate trace footprint
  // exceeds it, so the run must lean on eviction + rehydration.
  std::size_t aggregate = 0;
  for (std::size_t u = 0; u < spilled.num_users(); ++u) {
    const UserStore::Pin pin = spilled.traces(u);
    aggregate += mem::trace_footprint_bytes(pin.training()) +
                 mem::trace_footprint_bytes(pin.eval());
  }
  EXPECT_GT(aggregate, spill_config.store.cache_cap_bytes);

  const FleetReport report = run_fleet(spilled, suite);
  EXPECT_GT(spilled.store().evictions(), 0u);

  ASSERT_EQ(report.cells.size(), baseline.cells.size());
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    expect_same_cell(baseline.cells[c], report.cells[c], c);
  }
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(SpillFleet, GridRehydratesEachUserAtMostOnce) {
  // A row pins its user at most once, when its NetMaster cell mines,
  // and shares the pin across its cells, so a grid over a fully spilled
  // fleet decodes every blob at most once, at any worker count — not
  // once per (user, policy) cell.
  const std::vector<synth::UserProfile> profiles = small_fleet(6);
  const std::vector<PolicySpec> suite =
      standard_policy_suite(small_config().netmaster);
  const FleetReport resident =
      run_fleet(EvalSession(profiles, small_config()), suite);

  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;  // below any single user
  const EvalSession spilled(profiles, config);
  for (const unsigned workers : {1u, 2u, 8u}) {
    const std::uint64_t before = counter_value("store.rehydrations");
    const FleetReport report = run_fleet(spilled, suite, workers);
    EXPECT_LE(counter_value("store.rehydrations") - before,
              spilled.num_users())
        << workers << " workers";
    ASSERT_EQ(report.cells.size(), resident.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      expect_same_cell(resident.cells[c], report.cells[c], c);
    }
  }
}

TEST(SpillFleet, TrainingFreeRosterNeverRehydrates) {
  // A cell replays from the session's resident index, totals and
  // baseline; only a factory that reads its training trace pins the
  // row. A roster without NetMaster, and a delay sweep, therefore run
  // over a fully spilled fleet without decoding a single blob, at any
  // worker count, and still match the resident run bit for bit.
  const std::vector<synth::UserProfile> profiles = small_fleet(6);
  std::vector<PolicySpec> suite =
      standard_policy_suite(small_config().netmaster);
  std::erase_if(suite,
                [](const PolicySpec& s) { return s.name == "netmaster"; });
  const std::vector<double> delays = {0.0, 30.0, 120.0};
  const EvalSession resident_session(profiles, small_config());
  const FleetReport resident = run_fleet(resident_session, suite);
  const std::vector<SweepPoint> resident_sweep =
      delay_sweep(resident_session, delays);

  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;  // below any single user
  const EvalSession spilled(profiles, config);
  ASSERT_LT(spilled.store().resident_count(), spilled.num_users());
  for (const unsigned workers : {1u, 2u, 8u}) {
    const std::uint64_t before = counter_value("store.rehydrations");
    const FleetReport report = run_fleet(spilled, suite, workers);
    const std::vector<SweepPoint> points =
        delay_sweep(spilled, delays, workers);
    EXPECT_EQ(counter_value("store.rehydrations") - before, 0u)
        << workers << " workers";
    ASSERT_EQ(report.cells.size(), resident.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      expect_same_cell(resident.cells[c], report.cells[c], c);
    }
    ASSERT_EQ(points.size(), resident_sweep.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].energy_saving, resident_sweep[i].energy_saving);
      EXPECT_EQ(points[i].radio_on_reduction,
                resident_sweep[i].radio_on_reduction);
      EXPECT_EQ(points[i].bandwidth_increase,
                resident_sweep[i].bandwidth_increase);
      EXPECT_EQ(points[i].affected_fraction,
                resident_sweep[i].affected_fraction);
    }
  }
}

TEST(SpillFleet, TraceTakingFactoryReceivesTheHydratedTrace) {
  // A factory written against `const UserTrace&` still converts from
  // the lazy TrainingTrace handle, and what it receives is the user's
  // rehydrated training trace — equal to the resident one.
  const std::vector<synth::UserProfile> profiles = small_fleet(4);
  const EvalSession resident(profiles, small_config());
  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;
  const EvalSession spilled(profiles, config);

  // One slot per row, written only by that row's cell.
  std::vector<UserTrace> seen(profiles.size());
  PolicySpec spec;
  spec.name = "recording-baseline";
  spec.make = [&seen](const UserTrace& training) {
    seen[static_cast<std::size_t>(training.user) - 1] = training;
    return std::make_unique<policy::BaselinePolicy>();
  };
  for (const unsigned workers : {1u, 4u}) {
    seen.assign(profiles.size(), UserTrace{});
    const std::uint64_t before = counter_value("store.rehydrations");
    const FleetReport report = run_fleet(spilled, {spec}, workers);
    EXPECT_TRUE(report.failures.empty());
    EXPECT_GT(counter_value("store.rehydrations") - before, 0u);
    for (std::size_t u = 0; u < profiles.size(); ++u) {
      const UserStore::Pin pin = resident.traces(u);
      EXPECT_EQ(seen[u].user, pin.training().user) << "user " << u;
      EXPECT_EQ(seen[u].activities, pin.training().activities)
          << "user " << u;
      EXPECT_EQ(seen[u].sessions, pin.training().sessions) << "user " << u;
    }
  }

  // The eager direction: a hydrated trace passes straight through.
  const UserStore::Pin pin = resident.traces(0);
  const TrainingTrace handle = pin.training();
  EXPECT_EQ(&static_cast<const UserTrace&>(handle), &pin.training());
}

TEST(SpillFleet, CorruptedBlobFailsOnlyItsRow) {
  // A spill file damaged on disk fails the rehydrating pin with a
  // BlobError. Only a cell that reads the damaged row's training trace
  // (the NetMaster column) records that error; the row's training-free
  // cells replay from the resident index as if nothing happened, and
  // the grid itself neither throws nor disturbs any other row.
  const std::vector<synth::UserProfile> profiles = small_fleet(4);
  const std::vector<PolicySpec> suite =
      standard_policy_suite(small_config().netmaster);
  const std::size_t m = suite.size();
  std::size_t netmaster = m;
  for (std::size_t p = 0; p < m; ++p) {
    if (suite[p].name == "netmaster") netmaster = p;
  }
  ASSERT_LT(netmaster, m);
  const FleetReport resident =
      run_fleet(EvalSession(profiles, small_config()), suite);

  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;
  const EvalSession spilled(profiles, config);
  ASSERT_EQ(spilled.num_ok(), profiles.size());
  constexpr std::size_t kBad = 1;
  // Pinning another user evicts kBad (the cap holds less than one
  // user), so the next pin of kBad must read its blob.
  spilled.traces(0);
  const std::filesystem::path blob =
      spilled.store().spill_dir() / ("user_" + std::to_string(kBad) + ".nmub");
  ASSERT_TRUE(std::filesystem::exists(blob));
  {
    std::fstream file(blob, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(64);
    file.write("corrupt!", 8);
  }
  std::string blob_error;
  try {
    spilled.traces(kBad);
  } catch (const mem::BlobError& e) {
    blob_error = e.what();
  }
  ASSERT_FALSE(blob_error.empty()) << "the damaged blob still decoded";

  for (const unsigned workers : {1u, 4u}) {
    spilled.traces(0);
    const std::uint64_t failed_before = counter_value("fleet.cells_failed");
    FleetReport report;
    ASSERT_NO_THROW(report = run_fleet(spilled, suite, workers));
    EXPECT_EQ(counter_value("fleet.cells_failed") - failed_before, 1u);
    ASSERT_EQ(report.cells.size(), resident.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      if (c == kBad * m + netmaster) {
        EXPECT_TRUE(report.cells[c].failed) << "cell " << c;
        EXPECT_EQ(report.cells[c].error, blob_error) << "cell " << c;
      } else {
        expect_same_cell(resident.cells[c], report.cells[c], c);
      }
    }
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].policy, "netmaster");
    EXPECT_EQ(report.failures[0].error, blob_error);
  }
}

/// The NetMaster columns alone: every cell mines (or reads the memo).
std::vector<PolicySpec> netmaster_only() {
  return solver_ablation_suite(small_config().netmaster);
}

TEST(SpillFleet, SecondNetMasterGridRehydratesNoUser) {
  // The session mines each user once, on the first grid that asks, and
  // keeps the result: a later NetMaster-only grid over the spilled
  // fleet builds every policy from the memo and decodes no blob.
  const std::vector<synth::UserProfile> profiles = small_fleet(6);
  const std::vector<PolicySpec> suite = netmaster_only();
  const FleetReport resident =
      run_fleet(EvalSession(profiles, small_config()), suite);

  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;  // below any single user
  const EvalSession spilled(profiles, config);
  ASSERT_EQ(spilled.store().resident_count(), 0u);
  for (const unsigned workers : {2u, 1u, 8u}) {
    const std::uint64_t before = counter_value("store.rehydrations");
    const FleetReport report = run_fleet(spilled, suite, workers);
    const std::uint64_t rehydrations =
        counter_value("store.rehydrations") - before;
    if (workers == 2u) {
      EXPECT_EQ(rehydrations, spilled.num_users()) << "first grid";
    } else {
      EXPECT_EQ(rehydrations, 0u) << workers << " workers";
    }
    ASSERT_EQ(report.cells.size(), resident.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      expect_same_cell(resident.cells[c], report.cells[c], c);
    }
  }
}

TEST(SpillFleet, FailedTrainingPinIsRetriedByTheNextGrid) {
  // A row whose pin fails leaves its user unmined: the memo keeps no
  // error. Once the spill file is whole again, the next grid pins the
  // row, mines that user (and only that user) and matches the resident
  // run everywhere.
  const std::vector<synth::UserProfile> profiles = small_fleet(4);
  const std::vector<PolicySpec> suite = netmaster_only();
  const FleetReport resident =
      run_fleet(EvalSession(profiles, small_config()), suite);

  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;
  const EvalSession spilled(profiles, config);
  constexpr std::size_t kBad = 2;
  const std::filesystem::path blob =
      spilled.store().spill_dir() / ("user_" + std::to_string(kBad) + ".nmub");
  ASSERT_TRUE(std::filesystem::exists(blob));
  std::string original(8, '\0');
  {
    std::fstream file(blob, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(64);
    file.read(original.data(), 8);
    file.seekp(64);
    file.write("corrupt!", 8);
  }
  const std::size_t m = suite.size();
  FleetReport report;
  ASSERT_NO_THROW(report = run_fleet(spilled, suite, 4));
  ASSERT_EQ(report.failures.size(), m);
  for (std::size_t p = 0; p < m; ++p) {
    EXPECT_TRUE(report.cell(kBad, p).failed) << suite[p].name;
  }

  {
    std::fstream file(blob, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(64);
    file.write(original.data(), 8);
  }
  obs::Counter& direct = obs::Registry::global().counter("mining.mine.direct");
  const std::uint64_t mined_before = direct.value();
  const std::uint64_t pins_before = counter_value("store.rehydrations");
  ASSERT_NO_THROW(report = run_fleet(spilled, suite, 4));
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(direct.value() - mined_before, 1u);
  EXPECT_EQ(counter_value("store.rehydrations") - pins_before, 1u);
  ASSERT_EQ(report.cells.size(), resident.cells.size());
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    expect_same_cell(resident.cells[c], report.cells[c], c);
  }
}

template <typename T>
void expect_same_records(std::span<const T> a, std::span<const T> b,
                         const std::string& what) {
  EXPECT_TRUE(std::ranges::equal(a, b)) << what;
}

/// Bit-for-bit equality of what set-up leaves per user: the index
/// records, the trace totals and the baseline report.
void expect_same_prepared(const EvalSession& a, const EvalSession& b,
                          std::size_t u, const std::string& context) {
  const std::string at = context + " user " + std::to_string(u);
  ASSERT_TRUE(a.ok(u)) << at;
  ASSERT_TRUE(b.ok(u)) << at;
  const engine::TraceIndex& x = a.index(u);
  const engine::TraceIndex& y = b.index(u);
  EXPECT_EQ(x.user(), y.user()) << at;
  EXPECT_EQ(x.num_days(), y.num_days()) << at;
  EXPECT_EQ(x.horizon(), y.horizon()) << at;
  expect_same_records(x.sessions(), y.sessions(), at);
  expect_same_records(x.usages(), y.usages(), at);
  expect_same_records(x.activities(), y.activities(), at);
  expect_same_records(x.deferrable_screen_off(), y.deferrable_screen_off(),
                      at);

  const sim::TraceTotals& tx = a.totals(u);
  const sim::TraceTotals& ty = b.totals(u);
  EXPECT_EQ(tx.horizon_ms, ty.horizon_ms) << at;
  EXPECT_EQ(tx.num_activities, ty.num_activities) << at;
  EXPECT_EQ(tx.bytes_down, ty.bytes_down) << at;
  EXPECT_EQ(tx.bytes_up, ty.bytes_up) << at;
  EXPECT_EQ(tx.peak_down_rate_kbps, ty.peak_down_rate_kbps) << at;
  EXPECT_EQ(tx.peak_up_rate_kbps, ty.peak_up_rate_kbps) << at;
  EXPECT_EQ(tx.total_usages, ty.total_usages) << at;
  EXPECT_EQ(tx.screen_on_ms, ty.screen_on_ms) << at;

  const sim::SimReport& rx = a.baseline(u);
  const sim::SimReport& ry = b.baseline(u);
  EXPECT_EQ(rx.policy_name, ry.policy_name) << at;
  EXPECT_EQ(rx.energy_j, ry.energy_j) << at;
  EXPECT_EQ(rx.transfer_energy_j, ry.transfer_energy_j) << at;
  EXPECT_EQ(rx.duty_energy_j, ry.duty_energy_j) << at;
  EXPECT_EQ(rx.radio_on_ms, ry.radio_on_ms) << at;
  EXPECT_EQ(rx.radio.energy_j, ry.radio.energy_j) << at;
  EXPECT_EQ(rx.radio.tail_tier_ms, ry.radio.tail_tier_ms) << at;
  EXPECT_EQ(rx.radio.promotions, ry.radio.promotions) << at;
  EXPECT_EQ(rx.wake_count, ry.wake_count) << at;
  EXPECT_EQ(rx.bytes_down, ry.bytes_down) << at;
  EXPECT_EQ(rx.bytes_up, ry.bytes_up) << at;
  EXPECT_EQ(rx.avg_down_rate_kbps, ry.avg_down_rate_kbps) << at;
  EXPECT_EQ(rx.avg_up_rate_kbps, ry.avg_up_rate_kbps) << at;
  EXPECT_EQ(rx.total_usages, ry.total_usages) << at;
  EXPECT_EQ(rx.affected_usages, ry.affected_usages) << at;
  EXPECT_EQ(rx.interrupts, ry.interrupts) << at;
  EXPECT_EQ(rx.affected_fraction, ry.affected_fraction) << at;
  EXPECT_EQ(rx.deferred_count, ry.deferred_count) << at;
  EXPECT_EQ(rx.screen_on_ms, ry.screen_on_ms) << at;
}

TEST(SpillFleet, SetupNeverRehydrates) {
  // Each set-up task prepares its user from the traces it just
  // admitted, so building a session decodes no blob, whatever the cap
  // and the worker count. What stays hydrated afterwards is fixed by
  // the rule in EvalSession's class comment: a build that overflowed
  // the cap keeps no hydration (each spilled user evicted exactly
  // once), a fleet that fits keeps every one (no eviction).
  const std::vector<synth::UserProfile> profiles = small_fleet(6);
  std::vector<VolunteerTraces> volunteers;
  for (const synth::UserProfile& profile : profiles) {
    volunteers.push_back(make_traces(profile, small_config()));
  }
  const EvalSession uncapped(profiles, small_config());
  const std::size_t n = profiles.size();

  struct Cap {
    std::size_t bytes;
    std::size_t resident;
    std::uint64_t evictions;
  };
  for (const Cap cap : {Cap{4096, 0, n}, Cap{std::size_t{1} << 30, n, 0}}) {
    for (const bool from_profiles : {true, false}) {
      for (const unsigned workers : {1u, 2u, 8u}) {
        const std::string context =
            std::string(from_profiles ? "profiles" : "volunteers") +
            " cap " + std::to_string(cap.bytes) + ", " +
            std::to_string(workers) + " workers";
        ExperimentConfig config = small_config();
        config.store.cache_cap_bytes = cap.bytes;
        const std::uint64_t before = counter_value("store.rehydrations");
        const EvalSession session =
            from_profiles ? EvalSession(profiles, config, workers)
                          : EvalSession(volunteers, config, workers);
        EXPECT_EQ(counter_value("store.rehydrations") - before, 0u)
            << context;
        EXPECT_EQ(session.store().resident_count(), cap.resident) << context;
        EXPECT_EQ(session.store().evictions(), cap.evictions) << context;
        ASSERT_EQ(session.num_users(), n) << context;
        for (std::size_t u = 0; u < n; ++u) {
          expect_same_prepared(uncapped, session, u, context);
        }
      }
    }
  }
}

TEST(SpillFleet, CappedSessionHoldsHalfTheResidentBytes) {
  // The point of spilling: at a 256 KB cap the session keeps at most
  // half the bytes of the all-resident one, counted exactly as the
  // store's hydrated traces plus the indexes' records. Which users a
  // grid leaves hydrated depends on which cell finished last, so the
  // capped footprint is read after a serial pin pass in id order: the
  // hydrations the cap keeps plus every index.
  std::vector<synth::UserProfile> profiles;
  for (int i = 0; i < 8; ++i) {
    profiles.push_back(
        synth::make_user(static_cast<synth::Archetype>(i), i + 1));
  }
  const EvalSession resident(profiles, ExperimentConfig{});
  ExperimentConfig capped_config;
  capped_config.store.cache_cap_bytes = 256 * 1024;
  const EvalSession capped(profiles, capped_config);
  for (std::size_t u = 0; u < capped.num_users(); ++u) capped.traces(u);

  const auto footprint = [](const EvalSession& session) {
    return session.store().resident_bytes() + session.arena_bytes();
  };
  EXPECT_GT(capped.store().evictions(), 0u);
  EXPECT_LE(2 * footprint(capped), footprint(resident))
      << "capped " << footprint(capped) << " B, resident "
      << footprint(resident) << " B";
}

TEST(SpillFleet, UncreatableSpillDirFailsEveryUser) {
  // A spill directory under a regular file cannot be created: every
  // user's admission fails with that I/O error, the constructor does
  // not throw, and a grid over the session reports each row failed.
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() / "nm_store_test_not_a_dir";
  std::filesystem::remove_all(file);
  std::ofstream(file) << "a regular file";
  const std::filesystem::path dir = file / "spill";
  std::string io_error;
  try {
    std::filesystem::create_directories(dir);
  } catch (const std::exception& e) {
    io_error = e.what();
  }
  ASSERT_FALSE(io_error.empty());

  const std::vector<synth::UserProfile> profiles = small_fleet(3);
  std::vector<VolunteerTraces> volunteers;
  for (const synth::UserProfile& profile : profiles) {
    volunteers.push_back(make_traces(profile, small_config()));
  }
  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 4096;
  config.store.spill_dir = dir.string();
  for (const bool from_profiles : {true, false}) {
    for (const unsigned workers : {1u, 4u}) {
      std::unique_ptr<EvalSession> session;
      ASSERT_NO_THROW(session = from_profiles
                                    ? std::make_unique<EvalSession>(
                                          profiles, config, workers)
                                    : std::make_unique<EvalSession>(
                                          volunteers, config, workers));
      EXPECT_EQ(session->num_ok(), 0u);
      for (std::size_t u = 0; u < session->num_users(); ++u) {
        EXPECT_EQ(session->prep_error(u), io_error) << "user " << u;
      }
      EXPECT_EQ(session->store().resident_count(), 0u);
      const FleetReport report =
          run_fleet(*session, standard_policy_suite(config.netmaster));
      EXPECT_EQ(report.failures.size(), profiles.size());
    }
  }
  std::filesystem::remove_all(file);
}

TEST(SpillFleet, VolunteerSessionsSpillToo) {
  const std::vector<synth::UserProfile> profiles = small_fleet(3);
  std::vector<VolunteerTraces> volunteers;
  for (const synth::UserProfile& profile : profiles) {
    volunteers.push_back(make_traces(profile, small_config()));
  }
  ExperimentConfig config = small_config();
  config.store.cache_cap_bytes = 1;
  const EvalSession session(volunteers, config);
  EXPECT_EQ(session.num_ok(), 3u);
  const FleetReport report =
      run_fleet(session, standard_policy_suite(config.netmaster));
  EXPECT_TRUE(report.failures.empty());
}

}  // namespace
}  // namespace netmaster::eval
