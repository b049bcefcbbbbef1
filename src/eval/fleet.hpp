// Fleet-scale batch evaluation: N users × M policies in one run.
//
// run_fleet is the one replay engine under every §VI figure runner,
// and it has one entry point: the per-user state (traces,
// engine::TraceIndex, baseline report) lives in an eval::EvalSession
// built exactly once, then all M policies replay against the shared
// indexes, parallelized over the full N×M cell grid. A one-off run is
// `run_fleet(EvalSession(users, config), policies)`. Results come back
// both per cell and aggregated per policy across the fleet, with
// per-user failures isolated into a ledger instead of aborting the
// run.
//
// A cell replays and accounts from the session's resident index,
// totals and baseline; only a probe, a factory that reads the trace
// itself, or the session's first mine of a user reads the user's
// traces. Its factory receives a TrainingTrace handle that pins the
// row's traces in the UserStore on first use, once per row, so a grid
// of training-free policies over a spilled session never rehydrates a
// user, and neither does a later grid of NetMaster columns, which
// build from the session's mined habits.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "eval/session.hpp"
#include "policy/policy.hpp"
#include "sim/accounting.hpp"

namespace netmaster::eval {

class RowPin;  // one grid row's lazy, single-flight pin (fleet.cpp)

/// A cell's handle on its user's training trace. Converts implicitly
/// from an already-hydrated `const UserTrace&` (eager) and to
/// `const UserTrace&`, so a factory written against the trace itself
/// keeps working. Inside run_fleet the handle is lazy: the first read
/// pins the row's traces in the UserStore (rehydrating a spilled user)
/// and every later read in the row reuses that pin. A factory that
/// never reads the handle costs its row no pin at all. A failed pin
/// throws its error from every read in the row.
///
/// habits() is the trace mined by mining::mine_habits, the input every
/// NetMaster factory builds from. On a lazy handle it serves the
/// session's memo (EvalSession::habits), so a session mines each user
/// once whatever the number of NetMaster columns and grids, and only
/// the first mine reads (and pins) the trace. On an eager handle it
/// mines the trace now.
class TrainingTrace {
 public:
  TrainingTrace(const UserTrace& trace) : trace_(&trace) {}
  explicit TrainingTrace(RowPin& row) : row_(&row) {}

  operator const UserTrace&() const;

  mining::MinedHabits habits() const;

 private:
  const UserTrace* trace_ = nullptr;  ///< set = eager
  RowPin* row_ = nullptr;             ///< set = lazy
};

/// A named policy factory. NetMaster trains per user, so the factory
/// receives the user's training trace and builds from its habits();
/// stateless policies take the handle and never read it, which keeps
/// their cells off the UserStore. Invoked once per (user, policy)
/// cell.
///
/// `probe`, when set, is evaluated on the constructed policy before the
/// replay and lands in FleetCell::probe_value — the hook for
/// policy-level metrics that are not part of the SimReport (e.g. the
/// Fig. 10c prediction accuracy). A probe reads the hydrated traces,
/// so it pins its row.
struct PolicySpec {
  std::string name;
  std::function<std::unique_ptr<policy::Policy>(TrainingTrace training)>
      make;
  std::function<double(const policy::Policy& policy,
                       const VolunteerTraces& traces)>
      probe;
  /// Per-spec radio override for the accounting pass: when set, this
  /// spec's cells are accounted under these radio models instead of the
  /// session's (config().netmaster.profit.{radio, wifi}). This is how
  /// one sweep grid carries policy columns on different radio profiles
  /// (WCDMA vs. LTE vs. NR) without rebuilding the session per profile.
  /// Note the relative metrics (energy_saving, radio_on_fraction) keep
  /// the session baseline as denominator — cross-profile comparisons
  /// should ratio raw cell energies against a baseline column carrying
  /// the same override.
  std::optional<RadioSet> radios = std::nullopt;
};

/// The §VI comparison suite: baseline, oracle, NetMaster, and
/// delay&batch at 10/20/60 s. The single source of truth for the
/// policy roster — every figure runner consumes these specs.
std::vector<PolicySpec> standard_policy_suite(
    const policy::NetMasterConfig& config);

/// Solver-ablation roster: one NetMaster variant per SinKnap backend
/// ("netmaster[fptas]", "netmaster[greedy]", "netmaster[auto]"), all
/// other knobs taken from `config`. There is no "netmaster[exact]": the
/// weight-indexed exact DP throws on byte-scale slot capacities (hours ×
/// 25 kB/s blows its table limit); kAuto takes it where it fits.
std::vector<PolicySpec> solver_ablation_suite(
    const policy::NetMasterConfig& config);

/// One (user, policy) cell of the fleet grid.
struct FleetCell {
  UserId user = 0;
  std::string profile_name;
  std::string policy;
  sim::SimReport report;
  double energy_saving = 0.0;      ///< 1 − E/E_baseline for this user
  double radio_on_fraction = 0.0;  ///< radio-on / baseline radio-on
  double probe_value = 0.0;        ///< PolicySpec::probe result, if set
  bool failed = false;             ///< this cell threw; report is empty
  bool degraded = false;           ///< policy took its fallback path
  std::string error;               ///< what() of the failure, if any
};

/// One isolated failure inside a fleet run. A failure during per-user
/// preparation (poisoned trace, failing baseline) produces one entry
/// with an empty `policy` covering the whole row; a failure inside a
/// single (user, policy) cell names the policy.
struct FleetFailure {
  UserId user = 0;
  std::string profile_name;
  std::string policy;  ///< empty = the whole user row failed in prep
  std::string error;
};

/// One policy's distribution of per-user metrics across the fleet.
/// Failed cells are excluded from the statistics and counted instead.
struct FleetAggregate {
  std::string policy;
  StreamingStats energy_saving;
  StreamingStats radio_on_fraction;
  StreamingStats affected_fraction;
  StreamingStats deferral_latency_s;  ///< per-user mean latencies
  double total_energy_j = 0.0;
  std::size_t failed_cells = 0;    ///< cells excluded from the stats
  std::size_t degraded_cells = 0;  ///< cells served by a fallback path
};

/// Full N×M result grid plus per-policy aggregates.
struct FleetReport {
  std::size_t num_users = 0;
  std::size_t num_policies = 0;
  std::vector<FleetCell> cells;           ///< user-major: [u * M + m]
  std::vector<FleetAggregate> aggregates; ///< one per policy, in order
  /// Isolated failures, in deterministic (user, policy) order. Empty on
  /// a healthy run. One user's poisoned trace never aborts the other
  /// N−1 users — it lands here instead.
  std::vector<FleetFailure> failures;

  /// Raw indexer for hot loops: no bounds checking.
  const FleetCell& cell(std::size_t user, std::size_t policy) const {
    return cells[user * num_policies + policy];
  }

  /// Bounds-checked cell access — throws netmaster::Error on an
  /// out-of-range index or a mismatched/truncated grid. The reducers
  /// use this; `cell()` stays for hot loops.
  const FleetCell& at(std::size_t user, std::size_t policy) const {
    NM_REQUIRE(user < num_users && policy < num_policies,
               "FleetReport::at (user, policy) index out of range");
    const std::size_t c = user * num_policies + policy;
    NM_REQUIRE(c < cells.size(),
               "FleetReport::at grid is inconsistent with its cells");
    return cells[c];
  }
};

/// Evaluates every policy on every prepared user of the session — the
/// one fleet evaluation path: build an EvalSession (from profiles or
/// from recorded volunteer traces), then call this, once or many times.
/// The session's traces/indexes/baselines are shared read-only state;
/// only the N×M cell grid runs here, as independent tasks on the
/// work-stealing pool writing pre-allocated result slots, so results
/// are deterministic in (session, policies) regardless of worker count
/// or steal order (`max_threads` = 0 means NETMASTER_THREADS when set,
/// else hardware concurrency). A row's traces are pinned at most once,
/// by the first of its cells that reads them, and dropped by its last
/// cell. Per-user errors are isolated into FleetReport::failures: a
/// user whose spill file cannot be decoded fails only the cells that
/// read its traces. The run itself never throws on bad user data.
FleetReport run_fleet(const EvalSession& session,
                      const std::vector<PolicySpec>& policies,
                      unsigned max_threads = 0);

/// Extracts the policy columns [first, first + count) of `report` into
/// a standalone FleetReport with its own failure ledger and per-policy
/// aggregates. The session must be the one `report` was produced from
/// (it distinguishes whole-row preparation failures from individual
/// cell failures). This is how the sweep driver splits one
/// (point × user × policy) grid back into per-point reports.
FleetReport slice_policies(const EvalSession& session,
                           const FleetReport& report, std::size_t first,
                           std::size_t count);

}  // namespace netmaster::eval
