#include "eval/fleet.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "jobs/job_system.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "policy/baseline.hpp"
#include "policy/delay_batch.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"

namespace netmaster::eval {

/// One user's row of the grid: the lazy, single-flight pin its cells
/// share. The first cell that reads the row's traces (a mining factory
/// or a probe) takes the row's only UserStore::Pin inside call_once;
/// a concurrent reader waits for that one decode and later readers
/// reuse it. A failed pin is not retried: its exception is kept and
/// rethrown to every reader in the row. Which cell pins is up to the
/// scheduler, but what it pins (or the error it raises) depends only on
/// the user, so the handoff cannot change a result. The row's last cell
/// drops the pin, so a hydration stays above the store's cache cap only
/// while its row is in flight.
class RowPin {
 public:
  void bind(const EvalSession& session, std::size_t u, std::size_t cells) {
    session_ = &session;
    user_ = u;
    cells_left_.store(cells, std::memory_order_relaxed);
  }

  const VolunteerTraces& traces() {
    std::call_once(once_, [this] {
      try {
        pin_ = session_->traces(user_);
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    if (error_) std::rethrow_exception(error_);
    return pin_.get();
  }

  /// The session's mined habits for this row's user; the first mine
  /// of the session reads the training trace through this row's pin.
  const mining::MinedHabits& habits() {
    return session_->habits(
        user_, [this]() -> const UserTrace& { return traces().training; });
  }

  /// Called once per finished cell; the last one releases the pin.
  void cell_done() {
    if (cells_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pin_ = {};
    }
  }

 private:
  const EvalSession* session_ = nullptr;
  std::size_t user_ = 0;
  std::once_flag once_;
  UserStore::Pin pin_;
  std::exception_ptr error_;
  std::atomic<std::size_t> cells_left_{0};
};

TrainingTrace::operator const UserTrace&() const {
  return trace_ != nullptr ? *trace_ : row_->traces().training;
}

mining::MinedHabits TrainingTrace::habits() const {
  return trace_ != nullptr ? mining::mine_habits(*trace_) : row_->habits();
}

std::vector<PolicySpec> standard_policy_suite(
    const policy::NetMasterConfig& config) {
  std::vector<PolicySpec> suite;
  suite.push_back({"baseline",
                   [](TrainingTrace) {
                     return std::make_unique<policy::BaselinePolicy>();
                   },
                   {}});
  suite.push_back({"oracle",
                   [profit = config.profit](TrainingTrace) {
                     return std::make_unique<policy::OraclePolicy>(profit);
                   },
                   {}});
  suite.push_back({"netmaster",
                   [config](TrainingTrace training) {
                     return std::make_unique<policy::NetMasterPolicy>(
                         training.habits(), config);
                   },
                   {}});
  for (const double d : {10.0, 20.0, 60.0}) {
    suite.push_back({"delay&batch-" + std::to_string(static_cast<int>(d)) +
                         "s",
                     [d](TrainingTrace) {
                       return std::make_unique<policy::DelayBatchPolicy>(
                           seconds(d));
                     },
                     {}});
  }
  return suite;
}

std::vector<PolicySpec> solver_ablation_suite(
    const policy::NetMasterConfig& config) {
  std::vector<PolicySpec> suite;
  for (const sched::SolverChoice backend :
       {sched::SolverChoice::kFptas, sched::SolverChoice::kGreedy,
        sched::SolverChoice::kAuto}) {
    policy::NetMasterConfig variant = config;
    variant.solver = backend;
    suite.push_back(
        {std::string("netmaster[") + sched::to_string(backend) + "]",
         [variant](TrainingTrace training) {
           return std::make_unique<policy::NetMasterPolicy>(
               training.habits(), variant);
         },
         {}});
  }
  return suite;
}

namespace {

/// Rebuilds the failure ledger and per-policy aggregates of `report`
/// from its cells, in deterministic (user, policy) order. `count_rows`
/// feeds the fleet.rows_failed counter — set only on fresh grids, not
/// when re-deriving a slice, so sweeps don't double-count.
void finalize_report(const EvalSession& session, FleetReport& report,
                     bool count_rows) {
  const std::size_t n = report.num_users;
  const std::size_t m = report.num_policies;

  report.failures.clear();
  for (std::size_t u = 0; u < n; ++u) {
    if (!session.ok(u)) {
      report.failures.push_back({session.user_id(u),
                                 session.profile_name(u), "",
                                 session.prep_error(u)});
      if (count_rows) {
        obs::Registry::global().counter("fleet.rows_failed").add(1);
      }
      continue;
    }
    for (std::size_t p = 0; p < m; ++p) {
      const FleetCell& cell = report.cell(u, p);
      if (cell.failed) {
        report.failures.push_back(
            {cell.user, cell.profile_name, cell.policy, cell.error});
      }
    }
  }

  // Per-policy aggregates, folded in fixed user order. Failed cells
  // are counted, not averaged.
  report.aggregates.assign(m, FleetAggregate{});
  for (std::size_t p = 0; p < m; ++p) {
    FleetAggregate& agg = report.aggregates[p];
    if (n > 0) agg.policy = report.cell(0, p).policy;
    for (std::size_t u = 0; u < n; ++u) {
      const FleetCell& cell = report.cell(u, p);
      if (cell.failed) {
        ++agg.failed_cells;
        continue;
      }
      if (cell.degraded) ++agg.degraded_cells;
      agg.energy_saving.add(cell.energy_saving);
      agg.radio_on_fraction.add(cell.radio_on_fraction);
      agg.affected_fraction.add(cell.report.affected_fraction);
      agg.deferral_latency_s.add(cell.report.mean_deferral_latency_s);
      agg.total_energy_j += cell.report.energy_j;
    }
  }
}

void fail_cell(FleetCell& cell, std::string error) {
  cell.failed = true;
  cell.error = std::move(error);
  obs::Registry::global().counter("fleet.cells_failed").add(1);
}

/// The body of one (user, policy) cell: make the policy (a NetMaster
/// factory from the session's mined habits), schedule, account. Writes
/// only its own pre-allocated cell — the deterministic result slot that
/// makes fleet output bit-identical regardless of worker count or steal
/// order. A throwing cell fails alone; a user whose preparation failed
/// poisons its own row, and one whose pin failed fails the row's cells
/// that read its traces.
void run_cell(const EvalSession& session, const PolicySpec& spec,
              std::size_t u, RowPin& row, FleetCell& cell) {
  cell.user = session.user_id(u);
  cell.profile_name = session.profile_name(u);
  cell.policy = spec.name;
  if (!session.ok(u)) {
    cell.failed = true;
    cell.error = session.prep_error(u);
    return;
  }
  const obs::SpanScope cell_span("fleet.cell");
  const engine::TraceIndex& index = session.index(u);
  try {
    std::unique_ptr<policy::Policy> pol;
    {
      const obs::SpanScope mine_span("fleet.mine");
      pol = spec.make(TrainingTrace(row));
    }
    if (spec.probe) {
      cell.probe_value = spec.probe(*pol, row.traces());
    }
    sim::PolicyOutcome outcome;
    {
      const obs::SpanScope schedule_span("fleet.schedule");
      outcome = pol->run(index);
    }
    const obs::SpanScope account_span("fleet.account");
    // Per-spec radio override, else the session's models. All-cellular
    // outcomes account bit-identically to the single-radio path.
    RadioSet radios;
    if (spec.radios) {
      radios = *spec.radios;
    } else {
      radios.cellular = session.config().netmaster.profit.radio;
      radios.wifi = session.config().netmaster.profit.wifi;
    }
    cell.report = sim::account(session.totals(u), index.usages().times(),
                               outcome, radios);
  } catch (const std::exception& e) {
    fail_cell(cell, e.what());
    return;
  }
  cell.degraded = cell.report.degraded;
  if (cell.degraded) {
    obs::Registry::global().counter("fleet.cells_degraded").add(1);
  }
  const sim::SimReport& baseline = session.baseline(u);
  if (baseline.energy_j > 0.0) {
    cell.energy_saving = 1.0 - cell.report.energy_j / baseline.energy_j;
  }
  if (baseline.radio_on_ms > 0) {
    cell.radio_on_fraction =
        static_cast<double>(cell.report.radio_on_ms) /
        static_cast<double>(baseline.radio_on_ms);
  }
}

}  // namespace

/// One task per (user, policy) cell and no edges: nothing a cell needs
/// is produced inside the grid. The index, totals and baseline are the
/// session's; the traces come from the row's lazy pin. The pool seeds
/// the cells round-robin by submission index and idle workers steal the
/// rest, so a row's cells spread over the workers.
FleetReport run_fleet(const EvalSession& session,
                      const std::vector<PolicySpec>& policies,
                      unsigned max_threads) {
  FleetReport report;
  {
    const obs::SpanScope span("eval.run_fleet");
    NM_REQUIRE(!policies.empty(), "fleet needs at least one policy");
    const std::size_t n = session.num_users();
    const std::size_t m = policies.size();
    report.num_users = n;
    report.num_policies = m;
    report.cells.resize(n * m);
    std::vector<RowPin> rows(n);
    for (std::size_t u = 0; u < n; ++u) rows[u].bind(session, u, m);
    jobs::TaskGraph graph;
    for (std::size_t c = 0; c < n * m; ++c) {
      graph.add([&session, &policies, &report, &rows, c, m] {
        RowPin& row = rows[c / m];
        run_cell(session, policies[c % m], c / m, row, report.cells[c]);
        row.cell_done();
      });
    }
    jobs::run_graph(graph, max_threads);
    finalize_report(session, report, /*count_rows=*/true);
  }
  // Snapshot hook: a fleet run is the natural export boundary, so a
  // driver only has to set NETMASTER_METRICS_OUT to get telemetry.
  obs::maybe_export_env();
  return report;
}

FleetReport slice_policies(const EvalSession& session,
                           const FleetReport& report, std::size_t first,
                           std::size_t count) {
  NM_REQUIRE(session.num_users() == report.num_users,
             "slice_policies session does not match the report");
  NM_REQUIRE(count > 0 && first + count <= report.num_policies,
             "slice_policies column range out of bounds");
  FleetReport slice;
  slice.num_users = report.num_users;
  slice.num_policies = count;
  slice.cells.reserve(report.num_users * count);
  for (std::size_t u = 0; u < report.num_users; ++u) {
    for (std::size_t p = 0; p < count; ++p) {
      slice.cells.push_back(report.cell(u, first + p));
    }
  }
  finalize_report(session, slice, /*count_rows=*/false);
  return slice;
}

}  // namespace netmaster::eval
