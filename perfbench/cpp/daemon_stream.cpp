// daemon-stream: netmasterd with 2 shards served over in-process
// LocalConnections, driven by an open-loop generator.
//
// The load is a LoadPlan of 32 users over 21 days (14 training, 7
// evaluation). A quarter of the users drift abruptly when evaluation
// starts, so the re-mine -> gate -> adopt path runs. Connection A
// carries the ingest lines on a schedule that keeps the trace's own
// burstiness (simulated time is compressed by one factor per offered
// rate) plus a `drain` watermark after every 5 simulated minutes of
// events. Connection B sends `get-schedule` for a trained user every 45
// simulated minutes of the evaluation window. Every request is timed
// from when it was due, not from when it was sent, and one reader
// thread per connection consumes every reply as it arrives so the
// bounded reply queues never push back on the daemon.
//
// Each pass streams the whole plan into a fresh daemon. The untraced run
// measures capacity with contended passes: both connections send back
// to back, so the reads run on the shards between ingest batches. The
// traced run adds a quiesced pass (each read alone on an idle daemon),
// the open loop at the nominal 60k events/s and the rate ladder, whose
// latencies are too unsteady on a small host to gate a change.
//
// Threads: 2 shard workers + the sender = 3 busy threads; the daemon's
// connection workers and the two reply readers mostly block, so the
// load fits in 4 cores.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "daemon/loadgen.hpp"
#include "daemon/netmasterd.hpp"
#include "daemon/user_session.hpp"
#include "engine/trace_index.hpp"
#include "jobs/job_system.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "policy/baseline.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/drift.hpp"
#include "synth/presets.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace netmaster;

constexpr int kUsers = 32;
constexpr int kTrainDays = 14;
constexpr int kEvalDays = 7;
constexpr int kShards = 2;
constexpr DurationMs kDrainEvery = 5 * kMsPerMinute;
constexpr DurationMs kScheduleEvery = 45 * kMsPerMinute;
/// Schedules start half a simulated day into evaluation, when every
/// user's training window has long been folded.
constexpr DurationMs kScheduleFrom = 12 * kMsPerHour;
/// Offered ingest rate at which latencies are reported (events/s).
constexpr double kNominalEps = 60000.0;
/// The rate ladder, as multiples of the nominal rate.
constexpr double kLadder[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
constexpr std::size_t kNominalRung = 2;
/// Ingest->applied limit of the rate ladder, fixed from seed
/// measurements: at 120k events/s the drain p99 was 4-105 ms in most
/// passes and above 250 ms in a few; at 240k it was 470-880 ms with the
/// generator held back by full queues.
constexpr double kApplyLimitMs = 250.0;
constexpr int kSetupRepeats = 25;
/// Contended passes: one warm-up, then those whose median events/s is
/// the capacity.
constexpr int kCapacityPasses = 4;

unsigned worker_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The daemon's configuration, shared with the batch ground truth. The
/// greedy SinKnap backend: with the default FPTAS, the seed rejects
/// most refreshed (drift-adapted) instances as too large ("FPTAS
/// choice table too large"), so get-schedule of a drifted user would
/// fail; the daemon tests use greedy for the same reason.
daemon::DaemonConfig daemon_config() {
  daemon::DaemonConfig config;
  config.num_shards = kShards;
  config.policy.solver = sched::SolverChoice::kGreedy;
  return config;
}

std::uint64_t outcome_digest(const sim::PolicyOutcome& outcome) {
  // The daemon's get-schedule digest: FNV-1a over the executed
  // transfers (activity index, start, duration).
  Digest d;
  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    d.mix(static_cast<std::uint64_t>(t.activity_index));
    d.mix(static_cast<std::uint64_t>(t.start));
    d.mix(static_cast<std::uint64_t>(t.duration));
  }
  return d.value();
}

/// One request of the open-loop timeline.
enum class Kind : std::uint8_t { kIngest, kDrain, kSchedule, kFinish };

struct Request {
  Kind kind = Kind::kIngest;
  TimeMs sim = 0;         ///< simulated send time; due = scaled
  std::uint32_t ref = 0;  ///< event index (ingest) or user
};

/// How a pass sends its requests.
enum class Pacing : std::uint8_t {
  /// Every request at its due time (the open loop).
  kOpenLoop,
  /// Back to back; each get-schedule goes out at its place in the
  /// stream and competes with the ingest around it for the shard.
  kContended,
  /// Back to back; each get-schedule first waits until every earlier
  /// event is applied and then runs alone.
  kQuiesced,
};

/// Everything derived from the seed before a daemon starts.
struct Inputs {
  daemon::LoadPlan plan;
  std::vector<bool> drifting;
  std::vector<std::string> user_lines;
  std::vector<std::string> ingest_lines;
  std::vector<Request> conn_a;  ///< ingest + drains, then finishes + drain
  std::vector<Request> conn_b;  ///< get-schedule marks
  std::size_t timeline_a = 0;   ///< conn_a entries before the finishes
  /// Per user, the conn_a index of its first evaluation-window event
  /// (npos when it has none): once that ingest is acknowledged the
  /// user's model is built and get-schedule can answer.
  std::vector<std::size_t> first_eval_at;
  TimeMs span_ms = 0;
  /// Batch NetMasterPolicy(training).run(TraceIndex(eval)) digests.
  std::vector<std::uint64_t> batch_digest;
  std::vector<sim::SimReport> baseline;
  std::string digest;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  daemon::LoadConfig load;
  load.users = kUsers;
  load.train_days = kTrainDays;
  load.eval_days = kEvalDays;
  load.seed = kCorpusSeed;
  in.plan = daemon::build_load_plan(load);

  // The drifting quarter (every fourth user): light users who turn into
  // heavy messengers when evaluation starts, generated as the full
  // trace eval::make_drifting_traces slices (onset 0 = first eval day).
  // Of the abrupt pairs over the eight archetypes this one is adopted
  // within seven evaluation days on every seed tried; for several
  // others (office worker, heavy messenger as the base) no refresh is
  // ever adopted.
  in.drifting.assign(kUsers, false);
  for (int u = 3; u < kUsers; u += 4) {
    in.drifting[static_cast<std::size_t>(u)] = true;
  }
  std::erase_if(in.plan.events, [&](const daemon::LoadEvent& e) {
    return in.drifting[static_cast<std::size_t>(e.user)];
  });
  for (int u = 0; u < kUsers; ++u) {
    if (!in.drifting[static_cast<std::size_t>(u)]) continue;
    synth::DriftSpec spec;
    spec.kind = synth::DriftKind::kAbrupt;
    spec.target = synth::Archetype::kHeavyMessenger;
    spec.onset_day = kTrainDays;
    const UserTrace full = synth::generate_drifting_trace(
        synth::make_user(synth::Archetype::kLightUser, u), spec,
        kTrainDays + kEvalDays, load.seed);
    daemon::LoadUser& user = in.plan.users[static_cast<std::size_t>(u)];
    user.training = full.slice_days(0, kTrainDays);
    user.eval = full.slice_days(kTrainDays, kEvalDays);
    daemon::append_trace_events(full, u, in.plan.events);
  }
  daemon::sort_events(in.plan.events);

  // Wire lines, formatted once: the generator's cost, not the daemon's.
  for (const daemon::LoadUser& user : in.plan.users) {
    net::Request req;
    req.kind = net::RequestKind::kUser;
    req.user = user.session.user;
    req.train_days = user.session.train_days;
    req.num_days = user.session.num_days;
    req.apps = user.session.app_names;
    in.user_lines.push_back(net::format_request(req));
  }
  Digest inputs;
  const TimeMs train_end = day_start(kTrainDays);
  in.first_eval_at.assign(kUsers, std::string::npos);
  const auto& events = in.plan.events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const daemon::LoadEvent& e = events[i];
    net::Request req;
    req.kind = net::RequestKind::kIngest;
    req.user = e.user;
    req.record = e.record;
    in.ingest_lines.push_back(net::format_request(req));
    const auto u = static_cast<std::size_t>(e.user);
    if (e.time >= train_end && in.first_eval_at[u] == std::string::npos) {
      in.first_eval_at[u] = in.conn_a.size();
    }
    in.conn_a.push_back({Kind::kIngest, e.time, static_cast<std::uint32_t>(i)});
    const bool batch_ends = i + 1 == events.size() ||
                            events[i + 1].time / kDrainEvery !=
                                e.time / kDrainEvery;
    if (batch_ends) in.conn_a.push_back({Kind::kDrain, e.time, 0});
    inputs.mix(static_cast<std::uint64_t>(e.time));
    inputs.mix(static_cast<std::uint64_t>(e.user));
  }
  in.timeline_a = in.conn_a.size();
  in.span_ms = day_start(kTrainDays + kEvalDays);
  const TimeMs last = events.empty() ? 0 : events.back().time;
  for (int u = 0; u < kUsers; ++u) {
    in.conn_a.push_back({Kind::kFinish, last, static_cast<std::uint32_t>(u)});
  }
  in.conn_a.push_back({Kind::kDrain, last, 0});

  // Reads cycle through the users in id order (so through the
  // archetypes); the seed shifts when they are sent, by whole simulated
  // minutes within one read interval, which changes the events each
  // read sees but not the mix of reads. (A seeded rotation changed
  // which users got the late, costlier reads and moved the read tail
  // by a third from seed to seed.)
  const TimeMs phase = static_cast<TimeMs>(
      seed % static_cast<std::uint64_t>(kScheduleEvery / kMsPerMinute));
  std::uint32_t reader = 0;
  for (TimeMs t = train_end + kScheduleFrom + phase * kMsPerMinute;
       t < in.span_ms; t += kScheduleEvery) {
    in.conn_b.push_back({Kind::kSchedule, t, reader});
    inputs.mix(static_cast<std::uint64_t>(t));
    reader = (reader + 1) % kUsers;
  }
  in.digest = inputs.hex();

  // Ground truth: batch digests and baseline reports, in parallel.
  in.batch_digest.assign(kUsers, 0);
  in.baseline.assign(kUsers, {});
  const daemon::DaemonConfig defaults = daemon_config();
  jobs::TaskGraph graph;
  for (int u = 0; u < kUsers; ++u) {
    graph.add([&in, &defaults, u] {
      const daemon::LoadUser& user = in.plan.users[static_cast<std::size_t>(u)];
      const engine::TraceIndex index(user.eval);
      const policy::BaselinePolicy base;
      in.baseline[static_cast<std::size_t>(u)] =
          sim::account(user.eval, base.run(index), defaults.policy.profit.radio);
      if (!in.drifting[static_cast<std::size_t>(u)]) {
        const policy::NetMasterPolicy batch(user.training, defaults.policy);
        in.batch_digest[static_cast<std::size_t>(u)] =
            outcome_digest(batch.run(index));
      }
    });
  }
  jobs::run_graph(graph, worker_count());
  return in;
}

/// `key=value` field of a daemon reply, or -1 when absent.
long long reply_field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(reply.c_str() + at + needle.size(), nullptr, 10);
}

/// The hex schedule digest of a get-schedule reply, 0 when absent.
std::uint64_t reply_digest(const std::string& reply) {
  const std::size_t at = reply.find(" digest=");
  if (at == std::string::npos) return 0;
  return std::strtoull(reply.c_str() + at + 8, nullptr, 16);
}

/// A running daemon with its serve thread and the two client
/// connections; the destructor shuts it down and joins.
class Harness {
 public:
  Harness() {
    daemon_ = std::make_unique<daemon::Netmasterd>(daemon_config());
    serve_ = std::thread([this] { daemon_->serve(listener_); });
    conn_a_ = listener_.connect();
    conn_b_ = listener_.connect();
  }
  ~Harness() {
    daemon_->shutdown();
    if (serve_.joinable()) serve_.join();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  daemon::Netmasterd& daemon() { return *daemon_; }
  net::Connection& a() { return *conn_a_; }
  net::Connection& b() { return *conn_b_; }

  /// Closed-loop request on connection A (user registration).
  std::string call_a(const std::string& line) {
    conn_a_->write_line(line);
    std::string reply;
    if (!conn_a_->read_line(reply)) return "err closed";
    return reply;
  }

 private:
  net::LocalListener listener_;
  std::unique_ptr<daemon::Netmasterd> daemon_;
  std::unique_ptr<net::Connection> conn_a_;
  std::unique_ptr<net::Connection> conn_b_;
  std::thread serve_;
};

/// Daemon start plus user registration over the wire.
std::unique_ptr<Harness> start(const Inputs& in, std::uint64_t& errors) {
  auto h = std::make_unique<Harness>();
  for (const std::string& line : in.user_lines) {
    if (h->call_a(line).rfind("ok", 0) != 0) ++errors;
  }
  return h;
}

/// Measurements of one pass over the whole plan.
struct Pass {
  double rate = 0.0;
  double setup_s = 0.0;
  std::vector<double> apply_ms;     ///< drain watermark latency from due
  std::vector<double> query_ms;     ///< get-schedule latency from due
  std::vector<double> lag_ms;       ///< send time - due, every request
  double final_apply_ms = 0.0;      ///< last event due -> final drain
  double stream_s = 0.0;            ///< first send -> final drain applied
  std::uint64_t sent = 0;
  std::uint64_t ingest_sent = 0;
  std::uint64_t errors = 0;
  std::string first_error;
  std::uint64_t skipped = 0;
  double queue_depth_max = 0.0;
  std::vector<int> final_model;
  std::vector<std::uint64_t> final_digest;
  std::string stats;
  std::map<std::string, std::uint64_t> counters;
  std::vector<sim::SimReport> reports;  ///< final schedules, accounted
};

/// Streams the plan into a fresh daemon, paced by `pacing`; the open
/// loop offers `rate` events/s.
Pass stream(const Inputs& in, double rate, Pacing pacing, Tracer* tracer,
            bool account) {
  const bool paced = pacing == Pacing::kOpenLoop;
  const bool quiesced = pacing == Pacing::kQuiesced;
  Pass pass;
  pass.rate = rate;
  const Clock::time_point s0 = Clock::now();
  std::unique_ptr<Harness> h = start(in, pass.errors);
  pass.setup_s = seconds_between(s0, Clock::now());
  const auto before = counter_snapshot();

  const double pass_s =
      static_cast<double>(in.plan.events.size()) / rate;
  const double ns_per_sim_ms =
      pass_s * 1e9 / static_cast<double>(in.span_ms);
  auto due_of = [&](const Request& r) {
    return std::chrono::nanoseconds(
        static_cast<std::int64_t>(static_cast<double>(r.sim) * ns_per_sim_ms));
  };
  const std::size_t pass_span =
      tracer != nullptr ? tracer->begin("daemon.pass", static_cast<std::uint64_t>(rate))
                        : Tracer::kNoParent;

  std::atomic<std::size_t> replies_a{0};
  std::atomic<std::size_t> replies_b{0};
  std::vector<std::uint32_t> b_sent;  // conn_b index per sent request
  b_sent.reserve(in.conn_b.size() + kUsers);
  std::vector<Clock::time_point> b_due(in.conn_b.size() + kUsers + 1);
  std::mutex result_mutex;  // guards pass fields the readers write
  pass.final_model.assign(kUsers, -1);
  pass.final_digest.assign(kUsers, 0);
  Clock::time_point start_at = Clock::now() + std::chrono::milliseconds(20);

  std::thread reader_a([&] {
    std::string reply;
    std::size_t k = 0;
    while (k < in.conn_a.size() && h->a().read_line(reply)) {
      const Clock::time_point now = Clock::now();
      const Request& r = in.conn_a[k];
      const std::lock_guard<std::mutex> lock(result_mutex);
      if (reply.rfind("ok", 0) != 0) {
        if (pass.errors++ == 0) pass.first_error = reply;
      }
      if (r.kind == Kind::kDrain) {
        const Clock::time_point due = start_at + due_of(r);
        const double ms = ms_between(due, now);
        if (k + 1 == in.conn_a.size()) {
          pass.final_apply_ms = ms;
        } else if (paced) {
          pass.apply_ms.push_back(ms);
          if (tracer != nullptr) {
            tracer->add("request.drain", k, due, now, pass_span);
          }
        }
      }
      replies_a.store(++k);
    }
  });
  std::thread reader_b([&] {
    std::string reply;
    std::size_t k = 0;
    while (h->b().read_line(reply)) {
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(result_mutex);
      if (reply.rfind("ok", 0) != 0) {
        if (pass.errors++ == 0) pass.first_error = reply;
      }
      const std::uint32_t item = b_sent[k];
      const double ms = ms_between(b_due[k], now);
      if (item < in.conn_b.size()) {
        pass.query_ms.push_back(ms);
        if (tracer != nullptr) {
          tracer->add(paced ? "request.get-schedule"
                            : "request.get-schedule.isolated",
                      k, b_due[k], now, pass_span);
        }
      } else if (item < in.conn_b.size() + kUsers) {
        const std::size_t u = item - in.conn_b.size();
        pass.final_model[u] = static_cast<int>(reply_field(reply, "model"));
        pass.final_digest[u] = reply_digest(reply);
      } else {
        pass.stats = reply;
      }
      replies_b.store(++k);
    }
  });
  // On every exit path: shut the daemon down, which closes both
  // connections and wakes the readers, then join them.
  struct JoinReaders {
    Harness& harness;
    std::thread& a;
    std::thread& b;
    ~JoinReaders() {
      harness.daemon().shutdown();
      a.join();
      b.join();
    }
  } join_readers{*h, reader_a, reader_b};

  auto send_b =[&](std::uint32_t item, Clock::time_point due,
                    const std::string& line) {
    {
      const std::lock_guard<std::mutex> lock(result_mutex);
      b_due[b_sent.size()] = due;
      b_sent.push_back(item);
    }
    h->b().write_line(line);
    ++pass.sent;
  };
  auto wait_for = [](const std::atomic<std::size_t>& count, std::size_t n) {
    while (count.load() < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  const std::string drain_line = "drain";
  const obs::Gauge& depth =
      obs::Registry::global().gauge("daemon.shard.queue_depth");

  const Clock::time_point began = std::min(start_at, Clock::now());
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < in.timeline_a || ib < in.conn_b.size()) {
    const bool take_b =
        ib < in.conn_b.size() &&
        (ia >= in.timeline_a || in.conn_b[ib].sim <= in.conn_a[ia].sim);
    const Request& r = take_b ? in.conn_b[ib] : in.conn_a[ia];
    const Clock::time_point due = start_at + due_of(r);
    if (paced) {
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      pass.lag_ms.push_back(ms_between(due, Clock::now()));
    }
    if (take_b) {
      ++ib;
      const std::size_t trained_at = in.first_eval_at[r.ref];
      if (quiesced) {
        // Everything sent so far is applied before the schedule runs
        // alone on an idle daemon.
        wait_for(replies_a, ia);
        h->daemon().drain();
      } else if (pacing == Pacing::kContended && trained_at < ia) {
        // The user's first evaluation event must be queued on its shard
        // before the read, or the read would find no model; usually it
        // was acknowledged long ago, so ingest keeps flowing.
        wait_for(replies_a, trained_at + 1);
      }
      if (replies_a.load() <= trained_at) {
        ++pass.skipped;
        continue;
      }
      const Clock::time_point sent_at = Clock::now();
      send_b(static_cast<std::uint32_t>(ib - 1), paced ? due : sent_at,
             "get-schedule " + std::to_string(r.ref));
      if (quiesced) wait_for(replies_b, b_sent.size());
      continue;
    }
    ++ia;
    if (r.kind == Kind::kIngest) {
      h->a().write_line(in.ingest_lines[r.ref]);
      ++pass.ingest_sent;
    } else {
      h->a().write_line(drain_line);
      pass.queue_depth_max = std::max(pass.queue_depth_max, depth.value());
    }
    ++pass.sent;
  }
  for (std::size_t k = in.timeline_a; k < in.conn_a.size(); ++k) {
    const Request& r = in.conn_a[k];
    h->a().write_line(r.kind == Kind::kFinish
                          ? "finish " + std::to_string(r.ref)
                          : drain_line);
    ++pass.sent;
  }
  wait_for(replies_a, in.conn_a.size());
  wait_for(replies_b, b_sent.size());
  pass.stream_s = seconds_between(began, Clock::now());
  // Quiesced final schedules: the isolated cost and the final digests.
  for (int u = 0; u < kUsers; ++u) {
    send_b(static_cast<std::uint32_t>(in.conn_b.size() + u), Clock::now(),
           "get-schedule " + std::to_string(u));
    wait_for(replies_b, b_sent.size());
  }
  send_b(static_cast<std::uint32_t>(in.conn_b.size() + kUsers), Clock::now(),
         "stats");
  wait_for(replies_b, b_sent.size());
  pass.counters = counter_delta(before, counter_snapshot());

  if (account) {
    const daemon::DaemonConfig defaults = daemon_config();
    for (int u = 0; u < kUsers; ++u) {
      const daemon::LoadUser& user = in.plan.users[static_cast<std::size_t>(u)];
      try {
        pass.reports.push_back(sim::account(
            user.eval, h->daemon().schedule(u).outcome,
            defaults.policy.profit.radio));
      } catch (const std::exception&) {
        const std::lock_guard<std::mutex> lock(result_mutex);
        ++pass.errors;
        pass.reports.emplace_back();
      }
    }
  }
  if (tracer != nullptr) tracer->end(pass_span);
  return pass;  // join_readers stops the daemon and joins the readers
}

/// Work counters of one pass that must repeat exactly in every pass.
std::map<std::string, std::uint64_t> exact_counters(const Pass& p) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : {"daemon.fold.days", "daemon.mine.models",
                           "daemon.refresh.count", "daemon.ingest.events"}) {
    out[name] = count_of(p.counters, name);
  }
  return out;
}

/// True when the daemon kept up with the pass's offered rate: every
/// request answered `ok`, no scheduled read skipped, and ingest->applied
/// and the generator's lag within the limit at p95 and for the final
/// drain, so the backlog did not grow. (p95, not p99: at 120k events/s
/// the drain p99 ranged from 4 to over 250 ms between passes of the
/// same input, while every pass at 240k ran hundreds of ms behind.)
bool sustained(const Pass& p) {
  return p.errors == 0 && p.skipped == 0 &&
         quantile(p.apply_ms, 0.95) <= kApplyLimitMs &&
         p.final_apply_ms <= kApplyLimitMs &&
         quantile(p.lag_ms, 0.95) <= kApplyLimitMs;
}

/// Correctness gate of a pass whose final state is checked.
void verify(const Inputs& in, const Pass& p, Result& r) {
  const long long events = reply_field(p.stats, "events");
  const long long dropped = reply_field(p.stats, "dropped");
  r.attempted += p.sent + in.user_lines.size();
  r.failed += p.errors + p.skipped +
              static_cast<std::uint64_t>(std::max(0LL, dropped));
  if (p.errors != 0) {
    r.fail(std::to_string(p.errors) + " err replies, first: " + p.first_error);
  }
  if (p.skipped != 0) {
    r.fail(std::to_string(p.skipped) + " get-schedule requests skipped");
  }
  if (events != static_cast<long long>(p.ingest_sent) || dropped != 0) {
    r.fail("stats disagree with the stream: " + p.stats);
  }
  for (int u = 0; u < kUsers; ++u) {
    const auto i = static_cast<std::size_t>(u);
    if (in.drifting[i]) {
      if (p.final_model[i] < 2) {
        r.fail("drifting user " + std::to_string(u) +
               " adopted no refresh (model " +
               std::to_string(p.final_model[i]) + ")");
      }
    } else if (p.final_digest[i] != in.batch_digest[i]) {
      r.fail("user " + std::to_string(u) +
             " streamed schedule differs from the batch policy");
    }
  }
  if (quantile(p.lag_ms, 0.99) > kApplyLimitMs) {
    r.fail("generator fell behind: lag p99 " +
           std::to_string(quantile(p.lag_ms, 0.99)) + " ms");
  }
}

void report_outcomes(const Inputs& in, const Pass& p, Result& r) {
  double saving = 0.0;
  double affected = 0.0;
  for (int u = 0; u < kUsers; ++u) {
    const auto i = static_cast<std::size_t>(u);
    saving += 1.0 - p.reports[i].energy_j / in.baseline[i].energy_j;
    affected += p.reports[i].affected_fraction;
  }
  r.set("energy_saving_pct", saving / kUsers * 100.0, "%");
  r.set("unaffected_pct", (1.0 - affected / kUsers) * 100.0, "%");
}

/// The rate ladder: climbs from the nominal rate while the daemon keeps
/// up, or descends until it does. A rung is sustained when most of up
/// to three passes keep up, so one pass disturbed by the host does not
/// move the result.
double sustained_rate(const Inputs& in, Result& r) {
  auto sustains = [&](double rate) {
    int ok = 0;
    int missed = 0;
    while (ok < 2 && missed < 2) {
      const Pass p = stream(in, rate, Pacing::kOpenLoop, nullptr, false);
      if (exact_counters(p) != r.counters) {
        r.fail("work counters differ between passes at " +
               std::to_string(rate) + " events/s and the nominal rate");
      }
      const bool kept_up = sustained(p);
      std::printf("rung %.0f events/s: %s (drain p95 %.2f ms, final %.2f "
                  "ms, lag p95 %.2f ms)\n",
                  rate, kept_up ? "sustained" : "not sustained",
                  quantile(p.apply_ms, 0.95), p.final_apply_ms,
                  quantile(p.lag_ms, 0.95));
      ++(kept_up ? ok : missed);
    }
    return ok == 2;
  };
  if (sustains(kNominalEps)) {
    double best = kNominalEps;
    for (std::size_t k = kNominalRung + 1; k < std::size(kLadder); ++k) {
      if (!sustains(kNominalEps * kLadder[k])) break;
      best = kNominalEps * kLadder[k];
    }
    return best;
  }
  for (std::size_t k = kNominalRung; k-- > 0;) {
    if (sustains(kNominalEps * kLadder[k])) return kNominalEps * kLadder[k];
  }
  return kNominalEps * kLadder[0] / 2.0;  // below the ladder, never 0
}

void run_untraced(const Inputs& in, Result& r) {
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    std::uint64_t errors = 0;
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Harness> h = start(in, errors);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    r.attempted += in.user_lines.size();
    r.failed += errors;
  }

  // Capacity: the whole plan streamed back to back on a fresh daemon per
  // pass, with every get-schedule sent at its place in the stream so
  // reads and ingest contend for the shard workers. The work is fixed,
  // so events/s applied is steady where the open loop's latencies and
  // rate ladder were not (see RATIONALE.md).
  std::vector<double> events_per_s;
  for (int k = 0; k < kCapacityPasses; ++k) {
    const Pass p = stream(in, kNominalEps, Pacing::kContended, nullptr, k == 0);
    verify(in, p, r);
    setup_s.push_back(p.setup_s);
    const auto counts = exact_counters(p);
    if (k == 0) {
      r.counters = counts;
      report_outcomes(in, p, r);
      // Set-up plus one pass: later passes reuse or fragment the heap
      // differently from run to run.
      r.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else if (counts != r.counters) {
      r.fail("work counters differ between passes");
    }
    const double eps = static_cast<double>(p.ingest_sent) / p.stream_s;
    std::printf("pass %d: %.0f events/s applied, %zu reads p50 %.2f ms%s\n",
                k, eps, p.query_ms.size(), median(p.query_ms),
                k == 0 ? " (warm-up, not counted)" : "");
    // The process's first pass also pays for faulting in the heap the
    // later passes reuse; a long-lived daemon pays that once.
    if (k > 0) events_per_s.push_back(eps);
  }
  r.set("setup_s", median(setup_s), "s");
  r.set("work_per_s", median(events_per_s), "1/s");
}

void run_traced(const Inputs& in, Result& r) {
  Tracer tracer;

  // net: format and parse every line of the stream, serially.
  std::vector<std::string> lines;
  lines.reserve(in.plan.events.size());
  {
    const SpanGuard span(&tracer, "net.format", 0);
    for (const daemon::LoadEvent& e : in.plan.events) {
      net::Request req;
      req.kind = net::RequestKind::kIngest;
      req.user = e.user;
      req.record = e.record;
      lines.push_back(net::format_request(req));
    }
  }
  std::size_t parse_errors = 0;
  {
    const SpanGuard span(&tracer, "net.parse", 0);
    net::Request req;
    std::string error;
    for (const std::string& line : lines) {
      if (!net::parse_request(line, req, error)) ++parse_errors;
    }
  }
  r.attempted += lines.size();
  r.failed += parse_errors;
  if (parse_errors != 0) r.fail("wire lines failed to parse");
  const double n_lines = static_cast<double>(std::max<std::size_t>(1, lines.size()));

  // daemon: each user's UserSession driven directly, one at a time.
  std::vector<std::vector<const service::Record*>> per_user(kUsers);
  for (const daemon::LoadEvent& e : in.plan.events) {
    per_user[static_cast<std::size_t>(e.user)].push_back(&e.record);
  }
  const daemon::DaemonConfig defaults = daemon_config();
  for (int u = 0; u < kUsers; ++u) {
    daemon::UserSession session(
        in.plan.users[static_cast<std::size_t>(u)].session, defaults.policy,
        defaults.adapt);
    {
      const SpanGuard span(&tracer, "daemon.session.ingest", u);
      for (const service::Record* rec : per_user[static_cast<std::size_t>(u)]) {
        session.ingest(*rec);
      }
      session.finish();
    }
    const SpanGuard span(&tracer, "daemon.session.schedule", u);
    session.schedule();
  }

  // The loaded nominal pass, then the same reads on a quiesced daemon.
  const Pass loaded = stream(in, kNominalEps, Pacing::kOpenLoop, &tracer,
                             true);
  verify(in, loaded, r);
  // Snapshot around the whole pass: shard workers merge their spans into
  // the registry only when they exit, at the daemon's shutdown.
  const auto before_quiet = counter_snapshot();
  const Pass quiet = stream(in, kNominalEps, Pacing::kQuiesced, &tracer,
                            false);
  const auto quiet_delta = counter_delta(before_quiet, counter_snapshot());
  verify(in, quiet, r);
  r.counters = exact_counters(loaded);
  if (exact_counters(quiet) != r.counters) {
    r.fail("work counters differ between the loaded and quiesced passes");
  }
  const double sustained_eps = sustained_rate(in, r);
  // Index builds and solver work of the reads, counted on the quiesced
  // pass where every read sees exactly the events before its mark.
  for (const char* name : {"sched.solver.dp_cells", "sched.knapsack.solves",
                           "sched.solver.items"}) {
    r.counters[name] = count_of(quiet_delta, name);
    r.set(name, static_cast<double>(r.counters[name]), "count");
  }
  r.set("engine.index_builds",
        static_cast<double>(count_of(quiet_delta, "span.engine.index_build")),
        "count");

  // The open loop's latencies and the rate ladder: what an operator
  // sees, but too unsteady on a 4-vCPU host to gate a change (drain p50
  // 0.09-0.5 ms, get-schedule p95 4.5-37 ms, the ladder flipping between
  // 60k and 120k across runs of the same input).
  r.set("daemon.ingest_applied_p50_ms", median(loaded.apply_ms), "ms");
  r.set("daemon.schedule_p50_ms", median(loaded.query_ms), "ms");
  r.set("daemon.schedule_p95_ms", quantile(loaded.query_ms, 0.95), "ms");
  r.set("daemon.ingest_sustained_eps", sustained_eps, "1/s");

  r.set("net.parse_ns_per_line", tracer.total_ms("net.parse") * 1e6 / n_lines,
        "ns");
  r.set("net.format_ns_per_line",
        tracer.total_ms("net.format") * 1e6 / n_lines, "ns");
  r.set("daemon.session_ingest_ns_per_event",
        tracer.total_ms("daemon.session.ingest") * 1e6 / n_lines, "ns");
  r.set("daemon.session_schedule_ms",
        median(tracer.durations_ms("daemon.session.schedule")), "ms");
  const double isolated = median(quiet.query_ms);
  r.set("daemon.schedule_isolated_ms", isolated, "ms");
  r.set("daemon.schedule_wait_ms", median(loaded.query_ms) - isolated, "ms");
  r.set("daemon.queue_depth_max", loaded.queue_depth_max, "count");
  for (const char* name : {"daemon.fold.days", "daemon.mine.models",
                           "daemon.refresh.count"}) {
    r.set(name, static_cast<double>(count_of(loaded.counters, name)),
          "count");
  }
  r.set("daemon.ingest_applied_p99_ms", quantile(loaded.apply_ms, 0.99),
        "ms");
  r.set("loadgen.lag_p99_ms", quantile(loaded.lag_ms, 0.99), "ms");
  r.set("loadgen.sent", static_cast<double>(loaded.sent), "count");
  tracer.write(".bench_build/work/trace-daemon-stream.jsonl");
}

}  // namespace

Result run_daemon_stream(const Args& args) {
  Result r;
  Inputs in = make_inputs(args.seed);
  r.inputs_digest = in.digest;
  if (args.corrupt_digest) {
    const auto stationary = std::find(in.drifting.begin(), in.drifting.end(),
                                      false) -
                            in.drifting.begin();
    in.batch_digest[static_cast<std::size_t>(stationary)] ^= 1;
  }
  if (args.trace) {
    run_traced(in, r);
  } else {
    run_untraced(in, r);
  }
  return r;
}

}  // namespace perfbench
