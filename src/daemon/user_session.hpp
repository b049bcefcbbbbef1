// Per-user streaming state of netmasterd.
//
// A UserSession turns one user's ingested monitoring records into the
// same artifacts the batch pipeline computes. Each record is converted
// once, on arrival, into trace records held by one of two
// service::TraceRebuilders; the session keeps no record store.
//
//   * during the training window, records go to the training rebuilder
//     (transfers clipped at the boundary, as UserTrace::slice_days
//     clips them); each completed day is counted as folded and closed.
//     When the last training day closes, the session finishes that
//     rebuilder and builds the serving NetMasterPolicy through the
//     batch constructor from its raw reconstruction — one model builder
//     for the batch policy and the daemon, so on clean streams the
//     policy is bit for bit NetMasterPolicy(training_trace, config)
//     (the daemon's batch-equivalence anchor, daemon_test). A late
//     record for an already-closed training day, arriving before the
//     training window completes, reaches the model, the special apps
//     and the quality ledger alike; one arriving after it is dropped.
//
//   * evaluation-window records go to the evaluation rebuilder, shifted
//     to the evaluation epoch. It is created when training completes,
//     re-opening at the epoch a screen session the training rebuilder
//     still holds open. Completed days feed the model's drift lifecycle
//     (service/model_lifecycle.hpp) — the same loop service::run_online
//     drives at its midnight tick. A due refresh re-mines from a
//     snapshot of the evaluation rebuilder; an adopted model hot-swaps
//     the serving policy (bumping model_version).
//
//   * schedule() snapshots the evaluation rebuilder, sanitizes and
//     indexes the result and runs the serving policy — cached until a
//     new evaluation record or a model swap invalidates it.
//
// Evaluation-day folds summarize a 2-day reconstruction window. They
// assume screen sessions span at most one midnight (true of synthesized
// and sanitized traces): the window always contains a day's governing
// screen edges. Records arriving for already-closed evaluation days
// still reach the evaluation rebuilder (later snapshots see them) but
// are counted as late_events and never re-folded — folds are
// deterministic, at-most-once.
//
// Not thread-safe: a session is owned by exactly one shard worker
// (daemon/shard.hpp), which serializes all access.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/sanitize.hpp"
#include "mining/incremental.hpp"
#include "policy/netmaster.hpp"
#include "service/model_lifecycle.hpp"
#include "service/record_store.hpp"
#include "sim/outcome.hpp"
#include "trace/trace.hpp"

namespace netmaster::daemon {

struct UserSessionConfig {
  UserId user = 0;
  /// Days of the training window (must be a multiple of 7 so the
  /// weekday/weekend phase survives the train/eval split, exactly as
  /// eval::ExperimentConfig requires).
  int train_days = 14;
  /// Total horizon; days [train_days, num_days) are the evaluation
  /// window schedules are computed over.
  int num_days = 21;
  std::vector<std::string> app_names;
};

struct UserSessionStats {
  std::uint64_t events = 0;
  std::uint64_t late_events = 0;   ///< already-folded day or out of horizon
  std::uint64_t days_folded = 0;
  std::uint64_t refresh_attempts = 0;
  std::uint64_t refreshes = 0;     ///< re-mined models actually adopted
  std::uint64_t alarms = 0;        ///< distinct drift alarms
  bool trained = false;
  bool finished = false;
  /// 0 before training completes; 1 after; +1 per adopted refresh.
  int model_version = 0;
  double drift_score = 0.0;        ///< detector score after the last fold
};

/// One computed schedule (the daemon's answer to get-schedule).
struct ScheduleResult {
  sim::PolicyOutcome outcome;
  int model_version = 0;
};

class UserSession {
 public:
  UserSession(UserSessionConfig config,
              policy::NetMasterConfig policy_config,
              service::AdaptationConfig adapt);

  const UserSessionConfig& config() const { return config_; }
  int eval_days() const { return config_.num_days - config_.train_days; }

  /// Ingests one monitoring record. Crossing a day boundary folds the
  /// completed day(s); crossing the training boundary builds the model.
  void ingest(const service::Record& record);

  /// Ends the event stream: folds every remaining day (empty days
  /// contribute zero-days, as in the batch miner) through the horizon.
  void finish();

  /// Computes (or returns the cached) schedule over the evaluation
  /// window from the records seen so far. Requires the training window
  /// to be complete (ingest crossed it, or finish() was called).
  const ScheduleResult& schedule();

  const UserSessionStats& stats() const { return stats_; }

 private:
  /// Converts an accepted record into its window's trace records.
  void add(service::Record record);
  /// The training rebuilder, created on first use.
  service::TraceRebuilder& training();
  void fold_through(int day);
  void fold_day(int day);
  mining::DayContribution summarize_window(int day) const;
  void complete_training();
  void attempt_refresh(int eval_day);
  /// Tolerant reconstruction of relative evaluation days
  /// [0, horizon_days): a snapshot of the evaluation rebuilder, which
  /// holds no record at or past that horizon when it is read.
  fault::SanitizeResult eval_trace(int horizon_days) const;

  UserSessionConfig config_;
  policy::NetMasterConfig policy_config_;
  TimeMs train_end_ = 0;

  /// Records before train_end_, until training completes; created by
  /// the first one, so registration allocates nothing.
  std::optional<service::TraceRebuilder> training_;
  /// Records in [train_end_, horizon), shifted to the evaluation epoch;
  /// created when training completes.
  std::optional<service::TraceRebuilder> eval_;
  /// Records of days [current_day_ - 1, current_day_] — the fold
  /// window. Pruned at each day close; the reason folds stay O(2 days).
  std::vector<service::Record> window_records_;
  int current_day_ = 0;

  service::ModelLifecycle lifecycle_;
  std::unique_ptr<policy::NetMasterPolicy> policy_;

  ScheduleResult cached_;
  bool cache_valid_ = false;

  UserSessionStats stats_;
};

}  // namespace netmaster::daemon
