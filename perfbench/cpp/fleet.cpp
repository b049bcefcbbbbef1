// The two fleet workloads: a closed loop of N x M grids (eval::run_fleet)
// over one resident EvalSession, each grid followed by single-user row
// queries replayed serially through the public layer calls.
//
//   fleet-standard      128 users x 21 days, standard suite + NetMaster
//                       on LTE with Wi-Fi offload, store cap 0. The
//                       knapsack, mining and instance build dominate.
//   fleet-replay-spill  128 users, heavy-tailed evaluation horizons, no
//                       knapsack (baseline, oracle, delay&batch), a
//                       small UserStore cap so cells rehydrate users
//                       from spilled blobs. Replay, accounting, spill
//                       and job stealing dominate.
//
// Each optimisation a later change may make lands mostly in one of the
// two and not at all in the other (see perfbench/RATIONALE.md).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common.hpp"
#include "engine/trace_index.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "jobs/job_system.hpp"
#include "mem/blob.hpp"
#include "obs/metrics.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace netmaster;

constexpr int kUsers = 128;
constexpr int kTrainDays = 14;
constexpr int kEvalDays = 7;
/// Heavy tail of fleet-replay-spill: user kLongUsers[i] evaluates
/// kLongHorizons[i] days (one commuter, retiree, heavy messenger and
/// weekend warrior), every other user 7 days.
constexpr int kLongUsers[] = {3, 44, 85, 126};
constexpr int kLongHorizons[] = {70, 56, 42, 28};
/// fleet-replay-spill keeps at most this share of the traces hydrated.
constexpr double kResidentShare = 0.125;
constexpr int kSetupRepeats = 5;

/// Work counters that must repeat exactly from grid to grid.
const char* const kExactCounters[] = {
    "sched.solver.dp_cells",         "sched.knapsack.solves",
    "sched.solver.items",            "policy.netmaster.models_mined",
    "policy.netmaster.duty_releases", "policy.netmaster.runs",
    "span.engine.index_build",       "span.fleet.cell",
    "jobs.tasks",
};

unsigned worker_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

synth::Archetype archetype(int u) {
  return static_cast<synth::Archetype>(u % 8);  // the eight §III users
}

/// One fleet's inputs. The traces are a fixed corpus (kCorpusSeed) and
/// the grids replay it in user-id order, so runs with different seeds
/// do the same work and the grid digest is golden. The run's seed
/// orders the row queries that follow the grids. (Seeding the session
/// order instead moved grid throughput by up to 15% through the job
/// graph's makespan.)
struct FleetInputs {
  std::vector<synth::UserProfile> profiles;
  std::vector<int> eval_days;  ///< per user
  std::vector<int> query_order;  ///< session indices, one row query each
  eval::ExperimentConfig config;
};

/// A fleet workload: how its inputs, session and roster are made.
struct FleetWorkload {
  const char* name;
  const char* headline;  ///< policy whose saving/affected is reported
  bool spill;            ///< heavy-tailed horizons + small cache cap
  /// Golden grid digest (grid_digest()) of the seed implementation. A
  /// change that moves any cell's energy bits, radio-on time, affected
  /// usages, interrupts or deferrals trips the gate.
  const char* golden;
};

const FleetWorkload kStandard{"fleet-standard", "netmaster", false,
                              "d31dbc231ff2e286"};
const FleetWorkload kReplaySpill{"fleet-replay-spill", "delay&batch-60s",
                                 true, "4a0e5b552dec7acc"};

FleetInputs make_inputs(const FleetWorkload& w, std::uint64_t seed) {
  FleetInputs in;
  in.config.train_days = kTrainDays;
  in.config.eval_days = kEvalDays;
  in.config.seed = kCorpusSeed;
  for (int u = 0; u < kUsers; ++u) {
    in.profiles.push_back(synth::make_user(archetype(u), u));
    int days = kEvalDays;
    for (std::size_t i = 0; w.spill && i < std::size(kLongUsers); ++i) {
      if (kLongUsers[i] == u) days = kLongHorizons[i];
    }
    in.eval_days.push_back(days);
  }
  in.query_order = permutation(kUsers, seed);
  return in;
}

std::string digest_inputs(const FleetInputs& in) {
  Digest d;
  d.mix(in.config.seed);
  for (std::size_t u = 0; u < in.profiles.size(); ++u) {
    d.mix(static_cast<std::uint64_t>(in.profiles[u].id));
    d.mix(static_cast<std::uint64_t>(in.eval_days[u]));
  }
  for (const int u : in.query_order) d.mix(static_cast<std::uint64_t>(u));
  return d.hex();
}

/// Synthesizes every user's train/eval pair on the job system, each
/// with its own horizon.
std::vector<eval::VolunteerTraces> synthesize(const FleetInputs& in,
                                              unsigned threads) {
  std::vector<eval::VolunteerTraces> out(in.profiles.size());
  jobs::TaskGraph graph;
  for (std::size_t u = 0; u < out.size(); ++u) {
    graph.add([&in, &out, u] {
      eval::ExperimentConfig cfg = in.config;
      cfg.eval_days = in.eval_days[u];
      out[u] = eval::make_traces(in.profiles[u], cfg);
    });
  }
  jobs::run_graph(graph, threads);
  return out;
}

/// Session build = the workload's set-up: synthesis, index, baseline.
/// fleet-standard takes the profile path (synthesis inside the session
/// graph); fleet-replay-spill needs per-user horizons, so it
/// synthesizes first and admits the pairs into a capped store.
std::unique_ptr<eval::EvalSession> build_session(const FleetWorkload& w,
                                                 const FleetInputs& in,
                                                 const std::string& spill_dir,
                                                 unsigned threads) {
  if (!w.spill) {
    return std::make_unique<eval::EvalSession>(in.profiles, in.config,
                                               threads);
  }
  std::vector<eval::VolunteerTraces> pairs = synthesize(in, threads);
  std::size_t total = 0;
  for (const eval::VolunteerTraces& p : pairs) {
    total += mem::trace_footprint_bytes(p.training) +
             mem::trace_footprint_bytes(p.eval);
  }
  eval::ExperimentConfig cfg = in.config;
  cfg.store.cache_cap_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(total) *
                                  kResidentShare));
  cfg.store.spill_dir = spill_dir;
  return std::make_unique<eval::EvalSession>(std::move(pairs), cfg, threads);
}

std::vector<eval::PolicySpec> make_roster(const FleetWorkload& w,
                                          const eval::EvalSession& session) {
  const policy::NetMasterConfig& nm = session.config().netmaster;
  std::vector<eval::PolicySpec> suite = eval::standard_policy_suite(nm);
  if (w.spill) {
    std::erase_if(suite, [](const eval::PolicySpec& s) {
      return s.name == "netmaster";
    });
    return suite;
  }
  policy::NetMasterConfig lte = nm;
  lte.profit.radio = RadioModel::lte_cdrx();
  lte.enable_wifi_offload = true;
  RadioSet radios;
  radios.cellular = RadioModel::lte_cdrx();
  radios.wifi = nm.profit.wifi;
  suite.push_back({"netmaster-lte-wifi",
                   [lte](const UserTrace& training) {
                     return std::make_unique<policy::NetMasterPolicy>(
                         training, lte);
                   },
                   {},
                   radios});
  return suite;
}

RadioSet radios_for(const eval::EvalSession& session,
                    const eval::PolicySpec& spec) {
  if (spec.radios) return *spec.radios;
  RadioSet radios;
  radios.cellular = session.config().netmaster.profit.radio;
  radios.wifi = session.config().netmaster.profit.wifi;
  return radios;
}

/// Bit pattern of everything a cell reports that the gate compares.
void mix_report(Digest& d, const sim::SimReport& r) {
  d.mix_double(r.energy_j);
  d.mix(static_cast<std::uint64_t>(r.radio_on_ms));
  d.mix(r.affected_usages);
  d.mix(r.interrupts);
  d.mix(r.deferred_count);
}

/// Digest of every cell in (user id, policy) order, so it does not
/// depend on the order the seed gave the users.
std::string grid_digest(const eval::FleetReport& report) {
  std::vector<std::size_t> rows(report.num_users);
  for (std::size_t u = 0; u < rows.size(); ++u) rows[u] = u;
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return report.cell(a, 0).user < report.cell(b, 0).user;
  });
  Digest d;
  for (const std::size_t u : rows) {
    for (std::size_t p = 0; p < report.num_policies; ++p) {
      const eval::FleetCell& cell = report.cell(u, p);
      d.mix(cell.failed ? 1 : 0);
      mix_report(d, cell.report);
    }
  }
  return d.hex();
}

bool same_report(const sim::SimReport& a, const sim::SimReport& b) {
  Digest da;
  Digest db;
  mix_report(da, a);
  mix_report(db, b);
  return da.value() == db.value();
}

/// Sanitized policy name for metric keys ("delay&batch-10s" ->
/// "delay_batch-10s").
std::string metric_name(std::string name) {
  std::replace(name.begin(), name.end(), '&', '_');
  return name;
}

std::size_t trace_events(const UserTrace& t) {
  return t.sessions.size() + t.usages.size() + t.activities.size();
}

/// What one row replay observed.
struct RowStats {
  double pin_ms = 0.0;
  bool rehydrated = false;         ///< the pin read the user's blob
  std::size_t account_events = 0;  ///< eval events accounted, all cells
};

/// One user's row replayed serially through the public layer calls —
/// what run_fleet's cell does: pin, make (mine), run, account. Used by
/// the untraced row queries and by the traced replay.
RowStats replay_row(const eval::EvalSession& session,
                    const std::vector<eval::PolicySpec>& roster,
                    std::size_t u, Tracer* tracer,
                    std::vector<sim::SimReport>& out) {
  RowStats stats;
  const std::uint64_t row_id = u;
  const std::uint64_t before =
      obs::Registry::global().counter("store.rehydrations").value();
  const Clock::time_point t0 = Clock::now();
  eval::UserStore::Pin pin;
  {
    const SpanGuard span(tracer, "store.pin", row_id);
    pin = session.traces(u);
  }
  stats.pin_ms = ms_between(t0, Clock::now());
  stats.rehydrated =
      obs::Registry::global().counter("store.rehydrations").value() != before;
  out.clear();
  for (std::size_t p = 0; p < roster.size(); ++p) {
    const eval::PolicySpec& spec = roster[p];
    const std::uint64_t id = u * roster.size() + p;
    const SpanGuard cell(tracer, "fleet.cell", id);
    std::unique_ptr<policy::Policy> pol;
    {
      const SpanGuard span(tracer, "policy.make." + metric_name(spec.name),
                           id);
      pol = spec.make(pin.training());
    }
    sim::PolicyOutcome outcome;
    {
      const SpanGuard span(tracer, "policy.run." + metric_name(spec.name),
                           id);
      outcome = pol->run(session.index(u));
    }
    const SpanGuard span(tracer, "sim.account", id);
    out.push_back(sim::account(pin.eval(), outcome, radios_for(session, spec)));
    stats.account_events += trace_events(pin.eval());
  }
  return stats;
}

/// Wraps a policy so its run() is a span (the traced grid).
class TracedPolicy final : public policy::Policy {
 public:
  TracedPolicy(std::unique_ptr<policy::Policy> inner, Tracer* tracer,
               std::string span, std::uint64_t id)
      : inner_(std::move(inner)),
        tracer_(tracer),
        span_(std::move(span)),
        id_(id) {}
  using Policy::run;
  std::string name() const override { return inner_->name(); }
  sim::PolicyOutcome run(const engine::TraceIndex& eval) const override {
    const SpanGuard span(tracer_, span_, id_);
    return inner_->run(eval);
  }

 private:
  std::unique_ptr<policy::Policy> inner_;
  Tracer* tracer_;
  std::string span_;
  std::uint64_t id_;
};

std::vector<eval::PolicySpec> traced_roster(
    const std::vector<eval::PolicySpec>& roster, Tracer* tracer) {
  std::vector<eval::PolicySpec> out = roster;
  for (std::size_t p = 0; p < out.size(); ++p) {
    const std::string name = metric_name(out[p].name);
    const std::size_t m = roster.size();
    out[p].make = [inner = roster[p].make, tracer, name, p,
                   m](const UserTrace& training) {
      const std::uint64_t id = static_cast<std::uint64_t>(training.user) * m + p;
      std::unique_ptr<policy::Policy> pol;
      {
        const SpanGuard span(tracer, "grid.make." + name, id);
        pol = inner(training);
      }
      return std::make_unique<TracedPolicy>(std::move(pol), tracer,
                                            "grid.run." + name, id);
    };
  }
  return out;
}

std::map<std::string, std::uint64_t> exact_counters(
    const std::map<std::string, std::uint64_t>& delta) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kExactCounters) out[name] = count_of(delta, name);
  return out;
}

void count_grid(Result& r, const eval::FleetReport& grid) {
  r.attempted += grid.cells.size();
  r.failed += grid.failures.size();
  if (!grid.failures.empty()) {
    r.fail("grid had " + std::to_string(grid.failures.size()) +
           " failed cells, first: " + grid.failures.front().error);
  }
}

std::size_t column_of(const std::vector<eval::PolicySpec>& roster,
                      const std::string& name) {
  for (std::size_t p = 0; p < roster.size(); ++p) {
    if (roster[p].name == name) return p;
  }
  return roster.size();
}

/// The grid's digest must equal the workload's golden value.
void check_golden(const std::string& digest, const FleetWorkload& w,
                  const Args& args, Result& r) {
  std::printf("grid_digest %s\n", digest.c_str());
  std::string expected = w.golden;
  if (args.corrupt_digest) {
    expected.back() = expected.back() == '0' ? '1' : '0';
  }
  if (digest != expected) {
    r.fail("grid digest " + digest + " != golden " + expected);
  }
}

std::string work_dir() {
  const std::filesystem::path dir = std::filesystem::path(".bench_build") /
                                    "work" / std::to_string(getpid());
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Removes the per-process work directory on every exit path.
struct WorkDir {
  std::string path = work_dir();
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string spill(int k) const {
    return path + "/spill-" + std::to_string(k);
  }
};

void fill_untraced(const FleetWorkload& w, const Args& args, Result& r) {
  const unsigned threads = worker_count();
  const WorkDir dir;
  const FleetInputs in = make_inputs(w, args.seed);
  r.inputs_digest = digest_inputs(in);

  // Set-up, several times; the last session stays resident.
  std::vector<double> setup_s;
  std::unique_ptr<eval::EvalSession> session;
  for (int k = 0; k < kSetupRepeats; ++k) {
    session.reset();
    const Clock::time_point t0 = Clock::now();
    session = build_session(w, in, dir.spill(k), threads);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (session->num_ok() != session->num_users()) {
    r.fail("session preparation failed for some users");
  }
  const std::vector<eval::PolicySpec> roster = make_roster(w, *session);

  // Closed loop of grids until the time is up, then the row queries.
  std::vector<double> grid_ms;
  std::vector<double> cells_per_s;
  std::vector<double> query_ms;
  std::string first_digest;
  std::map<std::string, std::uint64_t> first_counts;
  eval::FleetReport grid;
  std::vector<sim::SimReport> row;
  const Clock::time_point start = Clock::now();
  for (int iter = 0; iter < 2 || seconds_between(start, Clock::now()) <
                                     args.seconds;
       ++iter) {
    const auto before = counter_snapshot();
    const Clock::time_point t0 = Clock::now();
    grid = eval::run_fleet(*session, roster, threads);
    const double s = seconds_between(t0, Clock::now());
    const auto counts = exact_counters(counter_delta(before, counter_snapshot()));
    grid_ms.push_back(s * 1e3);
    cells_per_s.push_back(static_cast<double>(grid.cells.size()) / s);
    count_grid(r, grid);
    const std::string digest = grid_digest(grid);
    if (iter == 0) {
      first_digest = digest;
      first_counts = counts;
    } else if (digest != first_digest) {
      r.fail("grid " + std::to_string(iter) + " digest differs from grid 0");
    } else if (counts != first_counts) {
      r.fail("grid " + std::to_string(iter) + " work counters differ");
    }
  }
  // Every user's row replayed once more, serially and in the seed's
  // order: each must reproduce its grid cells bit for bit.
  for (const int q : in.query_order) {
    const auto u = static_cast<std::size_t>(q);
    const Clock::time_point q0 = Clock::now();
    replay_row(*session, roster, u, nullptr, row);
    query_ms.push_back(ms_between(q0, Clock::now()));
    r.attempted += row.size();
    for (std::size_t p = 0; p < row.size(); ++p) {
      if (!same_report(row[p], grid.cell(u, p).report)) {
        ++r.failed;
        r.fail("row query of user " + std::to_string(u) +
               " differs from the grid cell of " + roster[p].name);
      }
    }
  }
  r.counters = first_counts;
  check_golden(first_digest, w, args, r);
  std::printf("grid ms:");
  for (const double ms : grid_ms) std::printf(" %.1f", ms);
  std::printf("\n%zu row queries: p50 %.2f ms, p75 %.2f ms\n",
              query_ms.size(), median(query_ms), quantile(query_ms, 0.75));

  const std::size_t head = column_of(roster, w.headline);
  const eval::FleetAggregate& agg = grid.aggregates[head];
  r.set("setup_s", median(setup_s), "s");
  r.set("work_per_s", median(cells_per_s), "1/s");
  r.set("energy_saving_pct", agg.energy_saving.mean() * 100.0, "%");
  r.set("unaffected_pct", (1.0 - agg.affected_fraction.mean()) * 100.0, "%");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void fill_traced(const FleetWorkload& w, const Args& args, Result& r) {
  const unsigned threads = worker_count();
  const WorkDir dir;
  Tracer tracer;
  const FleetInputs in = make_inputs(w, args.seed);
  r.inputs_digest = digest_inputs(in);

  // synth and engine, one user at a time.
  std::size_t index_events = 0;
  for (std::size_t u = 0; u < in.profiles.size(); ++u) {
    const int days = kTrainDays + in.eval_days[u];
    UserTrace full;
    {
      const SpanGuard span(&tracer, "synth.generate", u);
      full = synth::generate_trace(in.profiles[u], days, in.config.seed);
    }
    const UserTrace eval_part = full.slice_days(kTrainDays, in.eval_days[u]);
    const SpanGuard span(&tracer, "engine.index_build", u);
    const engine::TraceIndex index(eval_part);
    index_events += trace_events(eval_part);
  }

  const auto before_build = counter_snapshot();
  const auto session = build_session(w, in, dir.spill(0), threads);
  const auto build_delta = counter_delta(before_build, counter_snapshot());
  const std::vector<eval::PolicySpec> roster = make_roster(w, *session);
  const std::size_t m = roster.size();

  // Untraced and traced grids, twice each, for the overhead and the
  // parallel speedup.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  eval::FleetReport ref;
  std::map<std::string, std::uint64_t> grid_delta;
  double util_sum = 0.0;
  const std::vector<eval::PolicySpec> traced = traced_roster(roster, &tracer);
  for (int k = 0; k < 2; ++k) {
    const auto before = counter_snapshot();
    const obs::Histogram& util = obs::Registry::global().histogram(
        "jobs.worker_utilization", obs::fraction_bounds());
    const double util_before = util.sum();
    Clock::time_point t0 = Clock::now();
    ref = eval::run_fleet(*session, roster, threads);
    plain_s.push_back(seconds_between(t0, Clock::now()));
    util_sum = util.sum() - util_before;
    grid_delta = counter_delta(before, counter_snapshot());
    count_grid(r, ref);

    t0 = Clock::now();
    const eval::FleetReport traced_grid =
        eval::run_fleet(*session, traced, threads);
    traced_s.push_back(seconds_between(t0, Clock::now()));
    count_grid(r, traced_grid);
    if (grid_digest(traced_grid) != grid_digest(ref)) {
      r.fail("traced grid differs from the untraced grid");
    }
  }

  // Serial traced replay of every cell: must match run_fleet bit for bit.
  const auto before_replay = counter_snapshot();
  std::vector<sim::SimReport> row;
  std::vector<double> rehydrate_ms;
  std::size_t account_events = 0;
  for (std::size_t u = 0; u < session->num_users(); ++u) {
    const RowStats stats = replay_row(*session, roster, u, &tracer, row);
    if (stats.rehydrated) rehydrate_ms.push_back(stats.pin_ms);
    account_events += stats.account_events;
    r.attempted += row.size();
    for (std::size_t p = 0; p < m; ++p) {
      if (!same_report(row[p], ref.cell(u, p).report)) {
        ++r.failed;
        r.fail("serial replay of cell (" + std::to_string(u) + ", " +
               roster[p].name + ") differs from run_fleet");
      }
    }
  }
  const auto replay = counter_delta(before_replay, counter_snapshot());
  check_golden(grid_digest(ref), w, args, r);

  const double cells = static_cast<double>(ref.cells.size());
  const double plain_cps = cells / median(plain_s);
  const double traced_cps = cells / median(traced_s);
  const double serial_ms = tracer.total_ms("fleet.cell");

  std::vector<double> mine_ms;
  for (std::size_t p = 0; p < m; ++p) {
    if (roster[p].name.rfind("netmaster", 0) != 0) continue;
    const auto d =
        tracer.durations_ms("policy.make." + metric_name(roster[p].name));
    mine_ms.insert(mine_ms.end(), d.begin(), d.end());
  }
  r.set("synth.generate_ms", median(tracer.durations_ms("synth.generate")),
        "ms");
  r.set("engine.index_build_ns_per_event",
        tracer.total_ms("engine.index_build") * 1e6 /
            static_cast<double>(std::max<std::size_t>(1, index_events)),
        "ns");
  r.set("engine.index_builds",
        static_cast<double>(count_of(replay, "span.engine.index_build")),
        "count");
  r.set("mining.mine_ms", median(mine_ms), "ms");
  r.set("policy.netmaster.models_mined",
        static_cast<double>(count_of(replay, "policy.netmaster.models_mined")),
        "count");
  r.set("policy.netmaster.duty_releases",
        static_cast<double>(count_of(replay, "policy.netmaster.duty_releases")),
        "count");
  for (const char* name : {"sched.solver.dp_cells", "sched.knapsack.solves",
                           "sched.solver.items"}) {
    r.set(name, static_cast<double>(count_of(replay, name)), "count");
  }
  for (const eval::PolicySpec& spec : roster) {
    const std::string policy = metric_name(spec.name);
    r.set("policy.run_ms." + policy,
          median(tracer.durations_ms("policy.run." + policy)), "ms");
  }
  r.set("sim.account_ns_per_event",
        tracer.total_ms("sim.account") * 1e6 /
            static_cast<double>(std::max<std::size_t>(1, account_events)),
        "ns");
  r.set("store.rehydrate_ms", median(rehydrate_ms), "ms");
  r.set("store.rehydrations",
        static_cast<double>(count_of(replay, "store.rehydrations")), "count");
  r.set("store.spilled_bytes",
        static_cast<double>(count_of(build_delta, "store.spilled_bytes")),
        "bytes");
  r.set("mem.arena.bytes", static_cast<double>(session->arena_bytes()),
        "bytes");
  r.set("jobs.tasks", static_cast<double>(count_of(grid_delta, "jobs.tasks")),
        "count");
  r.set("jobs.steals",
        static_cast<double>(count_of(grid_delta, "jobs.steals")), "count");
  r.set("jobs.utilization", util_sum / static_cast<double>(threads),
        "ratio");
  r.set("jobs.parallel_speedup", serial_ms / (median(plain_s) * 1e3),
        "ratio");
  r.set("trace_overhead_pct", (plain_cps - traced_cps) / plain_cps * 100.0,
        "%");
  r.counters = exact_counters(replay);
  r.counters["store.rehydrations"] = count_of(replay, "store.rehydrations");
  tracer.write(".bench_build/work/trace-" + std::string(w.name) + ".jsonl");
}

Result run(const FleetWorkload& w, const Args& args) {
  Result r;
  if (args.trace) {
    fill_traced(w, args, r);
  } else {
    fill_untraced(w, args, r);
  }
  return r;
}

}  // namespace

Result run_fleet_standard(const Args& args) { return run(kStandard, args); }
Result run_fleet_replay_spill(const Args& args) {
  return run(kReplaySpill, args);
}

}  // namespace perfbench
