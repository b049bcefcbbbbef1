// netmasterd suite: the streaming daemon's batch-equivalence anchor
// (a replayed fleet's schedules match the batch policy path bit for
// bit), the drift-refresh path, the line protocol end to end over the
// in-process and TCP transports, and the shard queue semantics
// (drain, backpressure, late/dropped accounting, shutdown).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "daemon/loadgen.hpp"
#include "daemon/netmasterd.hpp"
#include "engine/trace_index.hpp"
#include "fault/sanitize.hpp"
#include "testkit/fault_plan.hpp"
#include "testkit/injector.hpp"
#include "mining/habits.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "policy/netmaster.hpp"
#include "service/record_store.hpp"
#include "synth/drift.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::daemon {
namespace {

void expect_outcomes_bitwise_equal(const sim::PolicyOutcome& streamed,
                                   const sim::PolicyOutcome& batch,
                                   const std::string& context) {
  ASSERT_EQ(streamed.transfers.size(), batch.transfers.size()) << context;
  for (std::size_t i = 0; i < batch.transfers.size(); ++i) {
    // EQ, not NEAR: the daemon's incremental path must reproduce the
    // batch schedule bit for bit (decay 0, clean stream).
    ASSERT_EQ(streamed.transfers[i].activity_index,
              batch.transfers[i].activity_index)
        << context << " transfer " << i;
    ASSERT_EQ(streamed.transfers[i].start, batch.transfers[i].start)
        << context << " transfer " << i;
    ASSERT_EQ(streamed.transfers[i].duration, batch.transfers[i].duration)
        << context << " transfer " << i;
  }
  EXPECT_EQ(streamed.interrupts, batch.interrupts) << context;
  EXPECT_EQ(streamed.duty_releases, batch.duty_releases) << context;
  EXPECT_EQ(streamed.path, batch.path) << context;
}

bool same_transfers(const sim::PolicyOutcome& a,
                    const sim::PolicyOutcome& b) {
  return std::equal(a.transfers.begin(), a.transfers.end(),
                    b.transfers.begin(), b.transfers.end(),
                    [](const sim::ExecutedTransfer& x,
                       const sim::ExecutedTransfer& y) {
                      return x.activity_index == y.activity_index &&
                             x.start == y.start && x.duration == y.duration;
                    });
}

// ---- The correctness anchor. -----------------------------------------

TEST(DaemonEquivalence, StreamedSchedulesMatchBatchBitForBit) {
  LoadConfig load;
  load.users = 4;  // first four archetypes
  load.train_days = 14;
  load.eval_days = 7;
  const LoadPlan plan = build_load_plan(load);
  ASSERT_EQ(plan.users.size(), 4u);
  ASSERT_FALSE(plan.events.empty());

  DaemonConfig config;
  config.num_shards = 2;
  Netmasterd daemon(config);
  replay_plan(plan, daemon);
  daemon.drain();

  for (const LoadUser& user : plan.users) {
    const ScheduleResult streamed = daemon.schedule(user.session.user);
    // Stationary streams never alarm, so the serving model is still
    // the training snapshot.
    EXPECT_EQ(streamed.model_version, 1)
        << "user " << user.session.user;

    const policy::NetMasterPolicy batch(user.training, config.policy);
    const engine::TraceIndex eval_index(user.eval);
    const sim::PolicyOutcome expected = batch.run(eval_index);
    expect_outcomes_bitwise_equal(
        streamed.outcome, expected,
        "user " + std::to_string(user.session.user));
  }

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.users, 4u);
  EXPECT_EQ(stats.totals.users_trained, 4u);
  EXPECT_EQ(stats.totals.users_finished, 4u);
  EXPECT_EQ(stats.totals.events, plan.events.size());
  EXPECT_EQ(stats.totals.dropped_events, 0u);
  EXPECT_EQ(stats.totals.refreshes, 0u);
  EXPECT_EQ(stats.totals.days_folded, 4u * 21u);
}

/// The batch ground truth for a streamed event list, reconstructed the
/// way UserSession converts it: records with negative timestamps are
/// dropped, the training window is rebuilt raw with transfers clipped
/// at its end, and the evaluation window is shifted to its epoch,
/// re-opening a screen session that straddles the boundary.
sim::PolicyOutcome batch_from_records(const std::vector<LoadEvent>& events,
                                      const UserSessionConfig& session,
                                      const policy::NetMasterConfig& config,
                                      UserTrace* training_out = nullptr) {
  const TimeMs train_end = day_start(session.train_days);
  const TimeMs horizon = day_start(session.num_days);
  service::RecordStore training;
  service::RecordStore eval;
  TimeMs open_since = -1;
  for (const LoadEvent& e : events) {
    service::Record r = e.record;
    if (r.time < 0 || r.time >= train_end) continue;
    if (r.kind == service::RecordKind::kScreenOn && open_since < 0) {
      open_since = r.time;
    } else if (r.kind == service::RecordKind::kScreenOff) {
      open_since = -1;
    }
    if (r.kind == service::RecordKind::kNetworkActivity &&
        r.time + r.duration > train_end) {
      r.duration = train_end - r.time;
    }
    training.append(r);
  }
  if (open_since >= 0) {
    eval.append({service::RecordKind::kScreenOn, 0, -1, 0, 0, 0, false,
                 false});
  }
  for (const LoadEvent& e : events) {
    service::Record r = e.record;
    if (r.time < train_end || r.time >= horizon) continue;
    r.time -= train_end;
    eval.append(r);
  }
  const UserTrace train_trace = training.reconstruct(
      session.user, session.train_days, session.app_names);
  if (training_out != nullptr) *training_out = train_trace;
  const policy::NetMasterPolicy batch(train_trace, config);
  return batch.run(engine::TraceIndex(
      fault::sanitize_trace(
          eval.reconstruct(session.user,
                           session.num_days - session.train_days,
                           session.app_names))
          .trace));
}

TEST(DaemonEquivalence, FaultedStreamMatchesBatchOnTheSameRecords) {
  // A damaged stream: the serving model must be the one the batch
  // constructor mines from the same records, reconstructed the way the
  // session converts them — one builder, also on the repair path.
  LoadConfig load;
  load.users = 2;
  const LoadPlan clean = build_load_plan(load);
  DaemonConfig config;
  // This test pins the model builder, not the drift detector (damaged
  // days may alarm).
  config.adapt.enable = false;

  for (const LoadUser& user : clean.users) {
    const std::string context = "user " + std::to_string(user.session.user);
    // Rebuild the user's full-horizon trace from its clean stream, then
    // damage it the way a monitoring pipeline would.
    service::RecordStore store;
    for (const LoadEvent& e : clean.events) {
      if (e.user == user.session.user) store.append(e.record);
    }
    fault::FaultPlan faults;
    faults.seed = 11 + static_cast<std::uint64_t>(user.session.user);
    faults.with(fault::FaultKind::kDuplicateRecord, 0.05)
        .with(fault::FaultKind::kReorderRecords, 0.05)
        .with(fault::FaultKind::kFieldCorruption, 0.05)
        .with(fault::FaultKind::kCounterReset, 0.05)
        .with(fault::FaultKind::kMissingScreenEdge, 0.3)
        .with(fault::FaultKind::kClockSkew, 0.05);
    const UserTrace damaged =
        fault::inject_faults(store.reconstruct(user.session.user,
                                               user.session.num_days,
                                               user.session.app_names),
                             faults)
            .trace;
    std::vector<LoadEvent> events;
    append_trace_events(damaged, user.session.user, events);
    sort_events(events);

    Netmasterd daemon(config);
    daemon.add_user(user.session);
    for (const LoadEvent& e : events) daemon.ingest(e.user, e.record);
    daemon.finish_user(user.session.user);

    UserTrace training;
    const sim::PolicyOutcome expected =
        batch_from_records(events, user.session, config.policy, &training);
    // Precondition: the training records really need repair.
    ASSERT_NE(training.first_violation(), nullptr) << context;
    const ScheduleResult streamed = daemon.schedule(user.session.user);
    EXPECT_EQ(streamed.model_version, 1) << context;
    expect_outcomes_bitwise_equal(streamed.outcome, expected, context);
  }
}

TEST(DaemonEquivalence, LateTrainingRecordReachesTheModel) {
  // One training-day app record arrives after its day closed but before
  // the training window completes. It is counted late, and the serving
  // model is still the batch policy mined on the full training trace,
  // the late record included.
  LoadConfig load;
  load.users = 1;
  const LoadPlan plan = build_load_plan(load);
  const LoadUser& user = plan.users[0];
  const DaemonConfig config;
  const engine::TraceIndex eval_index(user.eval);
  const sim::PolicyOutcome without =
      policy::NetMasterPolicy(user.training, config.policy).run(eval_index);

  // A usage at a weekend hour the training never used: it alone lifts
  // Pr[u] of that hour above the weekend δ. Take the first such hour
  // whose new slot moves the schedule.
  const mining::HabitModel model = mining::HabitModel::mine(user.training);
  service::Record late_record;
  UserTrace full;
  sim::PolicyOutcome expected;
  bool found = false;
  for (int day = 0; day < load.train_days - 1 && !found; ++day) {
    if (!is_weekend(day)) continue;
    for (int hour = 0; hour < kHoursPerDay && !found; ++hour) {
      if (model.pr_active(mining::DayKind::kWeekend, hour) > 0.0) continue;
      late_record = net::make_app_request(user.session.user,
                                          hour_start(day, hour) + 60'000,
                                          0, 30'000)
                        .record;
      full = user.training;
      const AppUsage usage{0, late_record.time, late_record.duration};
      full.usages.insert(
          std::upper_bound(full.usages.begin(), full.usages.end(), usage,
                           [](const AppUsage& a, const AppUsage& b) {
                             return a.time < b.time;
                           }),
          usage);
      expected =
          policy::NetMasterPolicy(full, config.policy).run(eval_index);
      found = !same_transfers(expected, without);
    }
  }
  // Precondition: the policy mined without the record schedules
  // differently, so a model that misses it fails below.
  ASSERT_TRUE(found);

  const TimeMs train_end = day_start(load.train_days);
  Netmasterd daemon(config);
  daemon.add_user(user.session);
  bool delivered = false;
  for (const LoadEvent& e : plan.events) {
    if (!delivered && e.time >= train_end) {
      // Every earlier training day has closed; training has not ended.
      daemon.ingest(user.session.user, late_record);
      delivered = true;
    }
    daemon.ingest(e.user, e.record);
  }
  daemon.finish_user(user.session.user);

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.late_events, 1u);
  EXPECT_EQ(stats.totals.days_folded,
            static_cast<std::uint64_t>(load.train_days + load.eval_days));
  const ScheduleResult streamed = daemon.schedule(user.session.user);
  EXPECT_EQ(streamed.model_version, 1);
  expect_outcomes_bitwise_equal(streamed.outcome, expected,
                                "late training record");
}

TEST(DaemonEquivalence, LateTrainingScreenEdgeClosesTheStraddlingSession) {
  // A training screen session opens ten minutes before the training
  // boundary and closes ten minutes after it. Before the boundary, a
  // late screen-off for an earlier training day arrives: the training
  // reconstruction pairs it with the open session and closes it there,
  // so the evaluation window must not re-open that session at its
  // epoch. A deferrable transfer inside the straddling session's
  // evaluation part then runs as a screen-off transfer, as the batch
  // policy on the same records runs it.
  LoadConfig load;
  load.users = 1;
  const LoadPlan plan = build_load_plan(load);
  const LoadUser& user = plan.users[0];
  const UserId id = user.session.user;
  const TimeMs train_end = day_start(load.train_days);
  const TimeMs quiet_from = train_end - kMsPerHour;
  const TimeMs quiet_to = train_end + kMsPerHour;
  // Precondition: no plan session crosses the quiet hours' edges, so
  // dropping the plan's events inside them drops whole sessions.
  ASSERT_FALSE(user.training.screen_on_at(quiet_from));
  ASSERT_FALSE(user.eval.screen_on_at(quiet_to - train_end));

  const TimeMs opened = train_end - 10 * kMsPerMinute;
  const TimeMs arrival = train_end + 5 * kMsPerMinute;
  const service::Record inserted[] = {
      net::make_screen_request(id, true, opened).record,
      net::make_screen_request(id, false, day_start(5) + 12 * kMsPerHour)
          .record,
      net::make_net_request(id, arrival, 0, 5'000, 4096, 512, false, true)
          .record,
      net::make_screen_request(id, false, train_end + 10 * kMsPerMinute)
          .record,
  };
  std::vector<LoadEvent> events;
  bool delivered = false;
  for (const LoadEvent& e : plan.events) {
    if (e.time >= quiet_from && e.time < quiet_to) continue;
    if (!delivered && e.time >= quiet_to) {
      for (const service::Record& r : inserted) {
        events.push_back({r.time, 0, id, r});
      }
      delivered = true;
    }
    events.push_back(e);
  }
  ASSERT_TRUE(delivered);

  Netmasterd daemon;
  daemon.add_user(user.session);
  for (const LoadEvent& e : events) daemon.ingest(e.user, e.record);
  daemon.finish_user(id);
  EXPECT_EQ(daemon.stats().totals.late_events, 1u);

  const DaemonConfig config;
  const sim::PolicyOutcome expected =
      batch_from_records(events, user.session, config.policy);
  // Precondition: re-opening the session at the evaluation epoch (an
  // extra screen-on at the boundary) schedules the transfer otherwise,
  // so a session that re-opens it fails below.
  std::vector<LoadEvent> reopened = events;
  const service::Record reopen =
      net::make_screen_request(id, true, train_end).record;
  reopened.insert(std::find_if(reopened.begin(), reopened.end(),
                               [&](const LoadEvent& e) {
                                 return e.time >= train_end;
                               }),
                  {train_end, 0, id, reopen});
  ASSERT_FALSE(same_transfers(
      batch_from_records(reopened, user.session, config.policy), expected));
  const ScheduleResult streamed = daemon.schedule(id);
  expect_outcomes_bitwise_equal(streamed.outcome, expected,
                                "late training screen edge");
}

TEST(DaemonEquivalence, ScheduleIsCachedAndStableAcrossRepeats) {
  LoadConfig load;
  load.users = 1;
  const LoadPlan plan = build_load_plan(load);
  Netmasterd daemon;
  replay_plan(plan, daemon);

  const ScheduleResult first = daemon.schedule(0);
  const ScheduleResult second = daemon.schedule(0);
  expect_outcomes_bitwise_equal(second.outcome, first.outcome, "repeat");
  EXPECT_EQ(second.model_version, first.model_version);
}

// ---- Telemetry. -------------------------------------------------------

std::uint64_t span_count(const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& row : obs::Registry::global().span_rows()) {
    if (row.name == name) total += row.stats.count;
  }
  return total;
}

TEST(DaemonObs, DrainedReplayMovesCountersByExactlyItsWork) {
  LoadConfig load;
  load.users = 2;
  load.train_days = 14;
  load.eval_days = 7;
  const LoadPlan plan = build_load_plan(load);
  const auto users = static_cast<std::uint64_t>(plan.users.size());

  obs::Registry& reg = obs::Registry::global();
  obs::Counter& events = reg.counter("daemon.ingest.events");
  obs::Counter& days = reg.counter("daemon.fold.days");
  obs::Counter& models = reg.counter("daemon.mine.models");
  const std::uint64_t events_before = events.value();
  const std::uint64_t days_before = days.value();
  const std::uint64_t models_before = models.value();
  obs::flush_thread_spans();
  const std::uint64_t schedules_before = span_count("daemon.schedule");

  Netmasterd daemon;
  replay_plan(plan, daemon);
  daemon.drain();
  for (const LoadUser& user : plan.users) daemon.schedule(user.session.user);
  // The schedule spans are recorded on the shard threads; shutdown
  // joins them, which merges their spans into the registry.
  daemon.shutdown();

  EXPECT_EQ(events.value() - events_before, plan.events.size());
  EXPECT_EQ(days.value() - days_before, users * 21u);
  EXPECT_GE(models.value() - models_before, users);
  EXPECT_EQ(span_count("daemon.schedule") - schedules_before, users);
}

// ---- Drift adaptation in the daemon. ---------------------------------

TEST(DaemonDrift, AbruptDriftTriggersAdoptedRefresh) {
  const int train_days = 14;
  const int eval_days = 14;
  const auto profile =
      synth::make_user(synth::Archetype::kOfficeWorker, 1);
  synth::DriftSpec spec;
  spec.kind = synth::DriftKind::kAbrupt;
  spec.onset_day = train_days;  // drift starts with the eval window
  const UserTrace full = synth::generate_drifting_trace(
      profile, spec, train_days + eval_days, 42);

  DaemonConfig config;
  // The refreshed model's slot layout can push a two-week drifted eval
  // window past the FPTAS instance-size guard; this test exercises the
  // adaptation loop, not the solver, so use the greedy backend.
  config.policy.solver = sched::SolverChoice::kGreedy;
  Netmasterd daemon(config);
  UserSessionConfig session;
  session.user = 1;
  session.train_days = train_days;
  session.num_days = train_days + eval_days;
  session.app_names = full.app_names;
  daemon.add_user(session);

  std::vector<LoadEvent> events;
  append_trace_events(full, 1, events);
  sort_events(events);
  for (const LoadEvent& e : events) daemon.ingest(e.user, e.record);
  daemon.finish_user(1);

  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.totals.alarms, 1u);
  EXPECT_GE(stats.totals.refreshes, 1u);
  const ScheduleResult result = daemon.schedule(1);
  EXPECT_GT(result.model_version, 1);
}

// ---- Protocol surface. -----------------------------------------------

TEST(DaemonProtocol, HandleLineErrorsNeverThrow) {
  Netmasterd daemon;
  EXPECT_EQ(daemon.handle_line("bogus request").substr(0, 4), "err ");
  EXPECT_EQ(daemon.handle_line("").substr(0, 4), "err ");
  // Unknown user: the schedule request fails in-band.
  EXPECT_EQ(daemon.handle_line("get-schedule 99").substr(0, 4), "err ");
  // Registered but untrained user: still an in-band error.
  EXPECT_EQ(daemon.handle_line("user 3 14 21 mail im"), "ok");
  EXPECT_EQ(daemon.handle_line("get-schedule 3").substr(0, 4), "err ");
  // Duplicate registration.
  EXPECT_EQ(daemon.handle_line("user 3 14 21 mail im").substr(0, 4),
            "err ");
  // Ingest for an unknown user is fire-and-forget: accepted on the
  // wire, counted as dropped by the owning shard.
  EXPECT_EQ(daemon.handle_line("ingest 99 screen-on 5"), "ok");
  EXPECT_EQ(daemon.handle_line("drain"), "ok drained");
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.dropped_events, 1u);
}

TEST(DaemonProtocol, EndToEndOverLocalTransport) {
  LoadConfig load;
  load.users = 2;
  const LoadPlan plan = build_load_plan(load);

  Netmasterd daemon;
  net::LocalListener listener;
  std::thread server([&] { daemon.serve(listener); });

  std::unique_ptr<net::Connection> client = listener.connect();
  std::string reply;
  for (const std::string& line : plan_request_lines(plan)) {
    client->write_line(line);
    ASSERT_TRUE(client->read_line(reply)) << line;
    ASSERT_EQ(reply, "ok") << line << " -> " << reply;
  }

  client->write_line("drain");
  ASSERT_TRUE(client->read_line(reply));
  EXPECT_EQ(reply, "ok drained");

  for (const LoadUser& user : plan.users) {
    client->write_line("get-schedule " +
                       std::to_string(user.session.user));
    ASSERT_TRUE(client->read_line(reply));
    EXPECT_EQ(reply.substr(0, 13), "ok transfers=") << reply;
    EXPECT_NE(reply.find(" model=1"), std::string::npos) << reply;
    EXPECT_NE(reply.find(" digest="), std::string::npos) << reply;
  }

  client->write_line("stats");
  ASSERT_TRUE(client->read_line(reply));
  EXPECT_EQ(reply.substr(0, 10), "ok shards=") << reply;
  EXPECT_NE(reply.find(" users=2"), std::string::npos) << reply;
  EXPECT_NE(reply.find(" trained=2"), std::string::npos) << reply;
  EXPECT_NE(reply.find(" dropped=0"), std::string::npos) << reply;

  // In-band shutdown: the reply arrives, then the transport closes and
  // serve() returns.
  client->write_line("shutdown");
  ASSERT_TRUE(client->read_line(reply));
  EXPECT_EQ(reply, "ok shutting down");
  EXPECT_FALSE(client->read_line(reply));
  server.join();
}

TEST(DaemonProtocol, WireSchedulesMatchDirectApiDigests) {
  // The same plan driven over the wire and through the direct API must
  // serve identical schedules — compare through the wire digest.
  LoadConfig load;
  load.users = 2;
  const LoadPlan plan = build_load_plan(load);

  Netmasterd wire_daemon;
  for (const std::string& line : plan_request_lines(plan)) {
    ASSERT_EQ(wire_daemon.handle_line(line), "ok");
  }
  Netmasterd direct_daemon;
  replay_plan(plan, direct_daemon);

  for (const LoadUser& user : plan.users) {
    const std::string query =
        "get-schedule " + std::to_string(user.session.user);
    const std::string a = wire_daemon.handle_line(query);
    const std::string b = direct_daemon.handle_line(query);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.substr(0, 13), "ok transfers=") << a;
  }
}

// The protocol script of a 2-user plan with every kind of in-band
// failure woven in: a duplicate `user`, get-schedule before and after
// training (and mid-stream), malformed and truncated ingests, an
// ingest for an unknown user and a line with no verb, and back-to-back
// drains mid-stream; the final reads follow a drain directly. It ends
// with a drain, stats (after the drain, so `queued=` is
// deterministic), an in-band shutdown and a drain after it.
std::vector<std::string> mixed_script(const LoadPlan& plan) {
  const std::vector<std::string> lines = plan_request_lines(plan);
  const std::size_t users = plan.users.size();
  const std::string first = std::to_string(plan.users[0].session.user);
  const std::string last = std::to_string(plan.users.back().session.user);
  std::vector<std::string> script(lines.begin(), lines.begin() + users);
  script.push_back(lines[0]);  // duplicate registration
  script.push_back("get-schedule " + first);  // untrained
  const std::string bad[] = {
      "ingest " + first + " net 5 0",     // truncated
      "ingest " + first + " screen-on x", // malformed timestamp
      "ingest 99 screen-on 5",            // unknown user
      "ingest",                           // no fields
      "get-schedule " + last,             // mid-stream read
      "",                                 // empty line
  };
  std::size_t next_bad = 0;
  for (std::size_t i = users; i < lines.size() - users; ++i) {
    script.push_back(lines[i]);
    if (i % 997 == 0) script.push_back(bad[next_bad++ % std::size(bad)]);
    if (i % 1499 == 0) {
      script.push_back("drain");
      script.push_back("drain");
    }
  }
  script.insert(script.end(), lines.end() - static_cast<long>(users),
                lines.end());
  script.push_back("drain");
  for (const LoadUser& user : plan.users) {
    script.push_back("get-schedule " + std::to_string(user.session.user));
  }
  script.push_back("drain");
  script.push_back("stats");
  script.push_back("shutdown");
  script.push_back("drain");
  return script;
}

// The batched serve loop must answer exactly as the one-line path: the
// whole script goes out as one pipelined write, and every reply must
// equal, line for line, that of a fresh daemon fed the same lines one
// at a time through handle_line and shut down where serve shuts down.
// The drain after the in-band shutdown is never answered: serve stops
// reading that connection at the shutdown and closes it.
TEST(DaemonProtocol, PipelinedServeRepliesEqualHandleLine) {
  LoadConfig load;
  load.users = 2;
  const std::vector<std::string> script = mixed_script(build_load_plan(load));

  Netmasterd reference;
  std::vector<std::string> expected;
  for (const std::string& line : script) {
    bool stop = false;
    expected.push_back(reference.handle_line(line, &stop));
    if (stop) reference.shutdown();
  }
  ASSERT_EQ(expected.back().rfind("err ", 0), 0u) << expected.back();
  EXPECT_NE(expected.back().find("daemon is shut down"), std::string::npos);
  expected.pop_back();  // the drain after the shutdown
  ASSERT_EQ(expected.back(), "ok shutting down");
  const std::string& stats = expected[expected.size() - 2];
  EXPECT_EQ(stats.rfind("ok shards=", 0), 0u) << stats;
  EXPECT_NE(stats.find(" queued=0"), std::string::npos) << stats;

  Netmasterd daemon;
  net::LocalListener listener;
  std::thread server([&] { daemon.serve(listener); });
  std::unique_ptr<net::Connection> client = listener.connect();
  // Written on its own thread: the reply queue is bounded, so the
  // script can only all go in while the replies are being read.
  std::thread writer([&] { client->write_lines(script); });
  std::vector<std::string> replies;
  std::string reply;
  while (client->read_line(reply)) replies.push_back(reply);
  writer.join();
  server.join();
  ASSERT_EQ(replies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replies[i], expected[i]) << "line " << i << ": " << script[i];
  }
}

// A pipelined drain is a posted barrier, but its reply still means
// "applied": when a drain's reply arrives, the shards have applied
// every ingest sent before it on the connection. One pipelined write
// interleaves runs of ingests with drains (some back to back), and the
// applied-events counter is read directly as each drain reply arrives.
TEST(DaemonProtocol, PipelinedDrainReplyMeansEveryEarlierIngestApplied) {
  LoadConfig load;
  load.users = 2;
  const LoadPlan plan = build_load_plan(load);
  const std::vector<std::string> lines = plan_request_lines(plan);
  const std::size_t users = plan.users.size();

  std::vector<std::string> script(lines.begin(), lines.begin() + users);
  std::vector<std::size_t> ingests_before;  // per script line; drains only
  ingests_before.assign(users, 0);
  std::size_t ingests = 0;
  for (std::size_t i = users; i < lines.size() - users; ++i) {
    script.push_back(lines[i]);
    ingests_before.push_back(0);
    ++ingests;
    if (ingests % 613 == 0 || ingests + 1 == plan.events.size()) {
      const int drains = ingests % 3 == 0 ? 2 : 1;
      for (int d = 0; d < drains; ++d) {
        script.push_back("drain");
        ingests_before.push_back(ingests);
      }
    }
  }
  ASSERT_EQ(ingests, plan.events.size());

  const obs::Counter& applied =
      obs::Registry::global().counter("daemon.ingest.events");
  DaemonConfig config;
  config.num_shards = 2;
  Netmasterd daemon(config);
  const std::uint64_t before = applied.value();
  net::LocalListener listener;
  std::thread server([&] { daemon.serve(listener); });
  std::unique_ptr<net::Connection> client = listener.connect();
  std::thread writer([&] { client->write_lines(script); });
  std::size_t k = 0;
  std::size_t drains = 0;
  std::string reply;
  while (k < script.size() && client->read_line(reply)) {
    if (script[k] == "drain") {
      const std::uint64_t seen = applied.value() - before;
      ASSERT_EQ(reply, "ok drained") << "line " << k;
      ASSERT_GE(seen, ingests_before[k])
          << "drain at line " << k << " replied before its ingests applied";
      ++drains;
    } else {
      ASSERT_EQ(reply, "ok") << "line " << k << ": " << script[k];
    }
    ++k;
  }
  writer.join();
  EXPECT_EQ(k, script.size());
  EXPECT_GT(drains, 50u);
  daemon.shutdown();
  server.join();
}

// Pipelined over TCP: the whole plan, a drain and the reads go out in
// one send_all, so the daemon's recv chunks cut lines at arbitrary
// bytes; every line still gets exactly one reply, in order.
TEST(DaemonProtocol, PipelinedTcpRepliesMatchDirectApiDigests) {
  LoadConfig load;
  load.users = 2;
  const LoadPlan plan = build_load_plan(load);
  // Drains, some back to back, between the ingests: the daemon's
  // non-waiting reads of the socket meet them at arbitrary cuts.
  std::vector<std::string> script;
  for (const std::string& line : plan_request_lines(plan)) {
    script.push_back(line);
    if (script.size() % 211 == 0) script.push_back("drain");
    if (script.size() % 1009 == 0) script.push_back("drain");
  }
  const std::size_t plan_lines = script.size();
  script.push_back("drain");
  for (const LoadUser& user : plan.users) {
    script.push_back("get-schedule " + std::to_string(user.session.user));
  }

  Netmasterd daemon;
  net::SocketListener listener(0);
  std::thread server([&] { daemon.serve(listener); });
  net::SocketConnection client(
      net::TcpStream::connect("127.0.0.1", listener.port()));
  std::thread sender([&] { client.write_lines(script); });
  std::vector<std::string> replies;
  std::string reply;
  while (replies.size() < script.size() && client.read_line(reply)) {
    replies.push_back(reply);
  }
  sender.join();
  ASSERT_EQ(replies.size(), script.size());
  for (std::size_t i = 0; i < plan_lines; ++i) {
    ASSERT_EQ(replies[i], script[i] == "drain" ? "ok drained" : "ok")
        << "line " << i << ": " << script[i];
  }
  EXPECT_EQ(replies[plan_lines], "ok drained");

  Netmasterd direct;
  replay_plan(plan, direct);
  for (std::size_t u = 0; u < plan.users.size(); ++u) {
    const std::string& wire = replies[plan_lines + 1 + u];
    EXPECT_EQ(wire, direct.handle_line(script[plan_lines + 1 + u]));
    EXPECT_EQ(wire.rfind("ok transfers=", 0), 0u) << wire;
  }
  // No reply beyond one per line: the next is the shutdown's.
  client.write_line("shutdown");
  ASSERT_TRUE(client.read_line(reply));
  EXPECT_EQ(reply, "ok shutting down");
  EXPECT_FALSE(client.read_line(reply));
  server.join();
}

TEST(DaemonProtocol, EndToEndOverTcpLoopback) {
  Netmasterd daemon;
  net::SocketListener listener(0);
  std::thread server([&] { daemon.serve(listener); });

  net::SocketConnection client(
      net::TcpStream::connect("127.0.0.1", listener.port()));
  client.write_line("user 1 14 21 mail im");
  std::string reply;
  ASSERT_TRUE(client.read_line(reply));
  EXPECT_EQ(reply, "ok");
  client.write_line("stats");
  ASSERT_TRUE(client.read_line(reply));
  EXPECT_EQ(reply.substr(0, 10), "ok shards=") << reply;
  client.write_line("shutdown");
  ASSERT_TRUE(client.read_line(reply));
  EXPECT_EQ(reply, "ok shutting down");
  server.join();
}

TEST(DaemonProtocol, ShutdownUnblocksIdleTcpConnections) {
  Netmasterd daemon;
  net::SocketListener listener(0);
  std::thread server([&] { daemon.serve(listener); });

  // An idle connection whose worker sits blocked in recv...
  net::SocketConnection idle(
      net::TcpStream::connect("127.0.0.1", listener.port()));
  idle.write_line("stats");
  std::string reply;
  ASSERT_TRUE(idle.read_line(reply));

  // ...must not keep serve() from joining after an in-band shutdown:
  // closing the connection has to wake its blocked worker.
  net::SocketConnection control(
      net::TcpStream::connect("127.0.0.1", listener.port()));
  control.write_line("shutdown");
  ASSERT_TRUE(control.read_line(reply));
  EXPECT_EQ(reply, "ok shutting down");
  server.join();
  EXPECT_FALSE(idle.read_line(reply));
}

TEST(DaemonWireBounds, OversizeLineGetsOneErrorThenClose) {
  Netmasterd daemon;
  net::SocketListener listener(0);
  std::thread server([&] { daemon.serve(listener); });

  // 1 MiB with no newline: the daemon must answer once and close, not
  // buffer it. The send runs on its own thread — the daemon stops
  // reading at the limit, so the tail may never drain.
  net::TcpStream peer =
      net::TcpStream::connect("127.0.0.1", listener.port());
  std::thread sender([&] {
    const std::string blob(std::size_t{1} << 20, 'x');
    try {
      peer.send_all(blob.data(), blob.size());
    } catch (const Error&) {
      // The daemon closed first.
    }
  });
  std::string received;
  char chunk[256];
  while (const std::size_t n = peer.recv_some(chunk, sizeof(chunk))) {
    received.append(chunk, n);
  }
  sender.join();
  EXPECT_EQ(received, "err line too long\n");

  // The daemon itself keeps serving.
  net::SocketConnection control(
      net::TcpStream::connect("127.0.0.1", listener.port()));
  control.write_line("shutdown");
  std::string reply;
  ASSERT_TRUE(control.read_line(reply));
  EXPECT_EQ(reply, "ok shutting down");
  server.join();
}

// Each `user` verb adds a session, so the daemon bounds them: past
// max_sessions a registration gets an error reply and is counted.
TEST(DaemonWireBounds, UserBeyondMaxSessionsGetsErrorReplyAndIsCounted) {
  DaemonConfig config;
  config.num_shards = 2;
  config.max_sessions = 2;
  Netmasterd daemon(config);
  const obs::Counter& rejected =
      obs::Registry::global().counter("daemon.sessions.rejected");
  const std::uint64_t before = rejected.value();

  EXPECT_EQ(daemon.handle_line("user 1 7 8 mail"), "ok");
  // A registration that fails for another reason gives its slot back.
  EXPECT_EQ(daemon.handle_line("user 1 7 8 mail").rfind("err ", 0), 0u);
  EXPECT_EQ(daemon.handle_line("user 2 7 8 mail"), "ok");
  for (const char* line : {"user 3 7 8 mail", "user 4 7 8 im"}) {
    const std::string reply = daemon.handle_line(line);
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;
    EXPECT_NE(reply.find("max_sessions=2"), std::string::npos) << reply;
  }
  EXPECT_EQ(rejected.value() - before, 2u);
  EXPECT_THROW(daemon.add_user({.user = 5, .train_days = 7, .num_days = 8,
                                .app_names = {"mail"}}),
               SessionLimitReached);
  EXPECT_EQ(rejected.value() - before, 3u);
  // The refused users have no session: their events are dropped.
  EXPECT_EQ(daemon.handle_line("ingest 3 screen-on 0"), "ok");
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.users, 2u);
  EXPECT_EQ(stats.totals.dropped_events, 1u);
}

// ---- Shard queue semantics. ------------------------------------------

TEST(DaemonQueue, TinyQueueBackpressureStillProcessesEverything) {
  LoadConfig load;
  load.users = 2;
  const LoadPlan plan = build_load_plan(load);

  // A queue_capacity of 0 acts as 1: every ingest hits the full-queue
  // path, and nothing blocks forever.
  for (const std::size_t capacity : {0, 1}) {
    DaemonConfig config;
    config.num_shards = 2;
    config.queue_capacity = capacity;
    Netmasterd daemon(config);
    replay_plan(plan, daemon);
    daemon.drain();

    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.totals.events, plan.events.size())
        << "capacity " << capacity;
    EXPECT_EQ(stats.totals.queue_depth, 0u) << "capacity " << capacity;
  }
}

// Three threads post into one shard whose queue holds one command, so
// nearly every post waits on "not full" and nearly every take finds
// the queue full: a lost wake-up on either side hangs the test (its
// ctest timeout turns that into a failure). Each thread streams one
// user, so per-user order survives the interleaving and every schedule
// matches a sequential replay.
TEST(DaemonQueueStress, ThreePostersIntoACapacityOneShardThenDrain) {
  LoadConfig load;
  load.users = 3;
  const LoadPlan plan = build_load_plan(load);

  const DaemonConfig defaults;
  Shard shard(0, 1, defaults.policy, defaults.adapt);
  for (const LoadUser& user : plan.users) shard.add_user(user.session);
  std::vector<std::thread> posters;
  for (const LoadUser& user : plan.users) {
    posters.emplace_back([&shard, &plan, id = user.session.user] {
      for (const LoadEvent& event : plan.events) {
        if (event.user == id) shard.ingest(id, event.record);
      }
      shard.finish(id);
    });
  }
  for (std::thread& t : posters) t.join();
  shard.drain().get();

  const ShardStats stats = shard.stats();
  EXPECT_EQ(stats.events, plan.events.size());
  EXPECT_EQ(stats.users_finished, plan.users.size());
  EXPECT_EQ(stats.dropped_events, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  Netmasterd sequential;
  replay_plan(plan, sequential);
  for (const LoadUser& user : plan.users) {
    const UserId id = user.session.user;
    expect_outcomes_bitwise_equal(shard.schedule(id).outcome,
                                  sequential.schedule(id).outcome,
                                  "user " + std::to_string(id));
  }
  shard.stop();
}

// Three connections pipeline their users' plans into a daemon whose
// shard queues hold one command, so every batched put waits for space
// chunk by chunk while other connections' puts interleave; then a
// drain. The schedules must equal a sequential replay's.
TEST(DaemonQueueStress, ThreeConnectionsPipelineIntoCapacityOneShards) {
  LoadConfig load;
  load.users = 3;
  const LoadPlan plan = build_load_plan(load);
  const std::vector<std::string> lines = plan_request_lines(plan);

  DaemonConfig config;
  config.num_shards = 2;
  config.queue_capacity = 1;
  Netmasterd daemon(config);
  net::LocalListener listener;
  std::thread server([&] { daemon.serve(listener); });

  std::vector<std::size_t> not_ok(plan.users.size(), 0);
  std::vector<std::thread> clients;
  for (std::size_t u = 0; u < plan.users.size(); ++u) {
    std::vector<std::string> script;
    for (const std::string& line : lines) {
      net::Request request;
      std::string error;
      if (net::parse_request(line, request, error) &&
          request.user == plan.users[u].session.user) {
        script.push_back(line);
      }
    }
    clients.emplace_back([&listener, &not_ok, u, script = std::move(script)] {
      std::unique_ptr<net::Connection> conn = listener.connect();
      std::thread writer([&] { conn->write_lines(script); });
      std::string reply;
      std::size_t replies = 0;
      while (replies < script.size() && conn->read_line(reply)) {
        ++replies;
        if (reply != "ok") ++not_ok[u];
      }
      writer.join();
      not_ok[u] += script.size() - replies;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(not_ok, std::vector<std::size_t>(plan.users.size(), 0));

  std::unique_ptr<net::Connection> control = listener.connect();
  control->write_line("drain");
  std::string reply;
  ASSERT_TRUE(control->read_line(reply));
  EXPECT_EQ(reply, "ok drained");
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.events, plan.events.size());
  EXPECT_EQ(stats.totals.users_finished, plan.users.size());
  EXPECT_EQ(stats.totals.queue_depth, 0u);

  Netmasterd sequential;
  replay_plan(plan, sequential);
  for (const LoadUser& user : plan.users) {
    const UserId id = user.session.user;
    expect_outcomes_bitwise_equal(daemon.schedule(id).outcome,
                                  sequential.schedule(id).outcome,
                                  "user " + std::to_string(id));
  }
  daemon.shutdown();
  server.join();
}

// Three connections pipeline their users' plans, each with a drain
// every few ingests, into capacity-1 shards: the drain tokens queue
// behind other connections' ingests and every reply is held until they
// resolve. Every reply must still arrive, in request order; a lost one
// hangs the test (its ctest timeout turns that into a failure).
TEST(DaemonQueueStress, ThreeConnectionsWithDrainsGetEveryReplyInOrder) {
  LoadConfig load;
  load.users = 3;
  const LoadPlan plan = build_load_plan(load);
  const std::vector<std::string> lines = plan_request_lines(plan);

  DaemonConfig config;
  config.num_shards = 2;
  config.queue_capacity = 1;
  Netmasterd daemon(config);
  net::LocalListener listener;
  std::thread server([&] { daemon.serve(listener); });

  std::vector<std::string> mismatch(plan.users.size());
  std::vector<std::thread> clients;
  for (std::size_t u = 0; u < plan.users.size(); ++u) {
    std::vector<std::string> script;
    std::vector<std::string> expected;
    for (const std::string& line : lines) {
      net::Request request;
      std::string error;
      if (!net::parse_request(line, request, error) ||
          request.user != plan.users[u].session.user) {
        continue;
      }
      script.push_back(line);
      expected.push_back("ok");
      if (script.size() % (5 + u) == 0) {
        script.push_back("drain");
        expected.push_back("ok drained");
      }
    }
    clients.emplace_back([&listener, &mismatch, u, script = std::move(script),
                          expected = std::move(expected)] {
      std::unique_ptr<net::Connection> conn = listener.connect();
      std::thread writer([&] { conn->write_lines(script); });
      std::string reply;
      std::size_t k = 0;
      while (k < expected.size() && conn->read_line(reply)) {
        if (reply != expected[k] && mismatch[u].empty()) {
          mismatch[u] = "reply " + std::to_string(k) + ": " + reply;
        }
        ++k;
      }
      writer.join();
      if (k < expected.size() && mismatch[u].empty()) {
        mismatch[u] = "only " + std::to_string(k) + " replies";
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatch, std::vector<std::string>(plan.users.size()));

  daemon.drain();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.events, plan.events.size());
  EXPECT_EQ(stats.totals.users_finished, plan.users.size());
  EXPECT_EQ(stats.totals.queue_depth, 0u);
  daemon.shutdown();
  server.join();
}

TEST(DaemonQueue, LateEventsAreCountedNotRefolded) {
  Netmasterd daemon;
  UserSessionConfig session;
  session.user = 7;
  session.train_days = 7;
  session.num_days = 8;
  session.app_names = {"mail"};
  daemon.add_user(session);

  // A minimal clean week: one session + usage + transfer per day.
  for (int d = 0; d < 7; ++d) {
    const TimeMs base = day_start(d) + 8 * kMsPerHour;
    daemon.ingest(7, net::make_screen_request(7, true, base).record);
    daemon.ingest(
        7, net::make_app_request(7, base + 60'000, 0, 120'000).record);
    daemon.ingest(7, net::make_net_request(7, base + 90'000, 0, 5'000,
                                           4096, 512, true, false)
                         .record);
    daemon.ingest(
        7, net::make_screen_request(7, false, base + kMsPerHour).record);
  }
  // This timestamp's day is already folded: late, never re-folded.
  daemon.ingest(7, net::make_app_request(7, day_start(0), 0, 1000).record);
  // Beyond the horizon: also late.
  daemon.ingest(
      7, net::make_app_request(7, day_start(9), 0, 1000).record);
  daemon.finish_user(7);

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.totals.late_events, 2u);
  EXPECT_EQ(stats.totals.days_folded, 8u);
  EXPECT_EQ(stats.totals.users_finished, 1u);
  // The schedule still computes (possibly on the degraded fallback —
  // one quiet week is thin evidence, but never an error).
  const ScheduleResult result = daemon.schedule(7);
  EXPECT_EQ(result.model_version, 1);
}

TEST(DaemonQueue, LateEvalRecordInvalidatesCachedSchedule) {
  // A record for an already-folded *evaluation* day still lands in the
  // schedule() reconstruction, so a schedule cached before it arrived
  // must not survive it. Compare against a daemon that saw the same
  // record in order: both evaluation rebuilders end up with the same
  // records, so both daemons must serve the same schedule bit for bit.
  LoadConfig load;
  load.users = 1;
  const LoadPlan plan = build_load_plan(load);
  const TimeMs train_end = day_start(load.train_days);
  const TimeMs last_day = day_start(load.train_days + load.eval_days - 1);

  // Withhold one eval-window net record from before the last day, so
  // delivering it after the full stream makes it late (day folded).
  std::size_t withheld = plan.events.size();
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const service::Record& r = plan.events[i].record;
    if (r.kind == service::RecordKind::kNetworkActivity &&
        r.time >= train_end && r.time < last_day) {
      withheld = i;
      break;
    }
  }
  ASSERT_LT(withheld, plan.events.size());

  // Adaptation off: the daemons' eval folds differ by the withheld
  // record, and this test pins the reconstruction, not the detector.
  DaemonConfig config;
  config.adapt.enable = false;
  Netmasterd in_order(config);
  Netmasterd late(config);
  const UserId user = plan.users[0].session.user;
  in_order.add_user(plan.users[0].session);
  late.add_user(plan.users[0].session);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    in_order.ingest(plan.events[i].user, plan.events[i].record);
    if (i != withheld) {
      late.ingest(plan.events[i].user, plan.events[i].record);
    }
  }
  const ScheduleResult expected = in_order.schedule(user);
  late.schedule(user);  // warm the cache without the withheld record
  late.ingest(plan.events[withheld].user, plan.events[withheld].record);

  const DaemonStats stats = late.stats();
  EXPECT_EQ(stats.totals.late_events, 1u);
  expect_outcomes_bitwise_equal(late.schedule(user).outcome,
                                expected.outcome, "late eval record");
}

TEST(DaemonQueue, ShutdownIsIdempotentAndRejectsFurtherWork) {
  Netmasterd daemon;
  UserSessionConfig session;
  session.user = 1;
  session.train_days = 7;
  session.num_days = 8;
  session.app_names = {"mail"};
  daemon.add_user(session);
  daemon.shutdown();
  daemon.shutdown();  // idempotent
  EXPECT_THROW(
      daemon.ingest(1, net::make_screen_request(1, true, 0).record),
      Error);
  EXPECT_THROW(daemon.stats(), Error);
}

}  // namespace
}  // namespace netmaster::daemon
