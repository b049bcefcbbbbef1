// Per-user streaming state of netmasterd.
//
// A UserSession turns one user's ingested monitoring records into the
// same artifacts the batch pipeline computes:
//
//   * during the training window, records are only stored; each
//     completed day is counted as folded and closed. When the last
//     training day closes, the session builds the serving
//     NetMasterPolicy through the batch constructor from the raw
//     reconstruction of every stored training record — one model
//     builder for the batch policy and the daemon, so on clean streams
//     the policy is bit for bit NetMasterPolicy(training_trace, config)
//     (the daemon's batch-equivalence anchor, daemon_test). A late
//     record for an already-closed training day, arriving before the
//     training window completes, reaches the model, the special apps
//     and the quality ledger alike.
//
//   * during the evaluation window, completed days feed the model's
//     drift lifecycle (service/model_lifecycle.hpp) — the same loop
//     service::run_online drives at its midnight tick. A due refresh
//     re-mines from the reconstructed evaluation records; an adopted
//     model hot-swaps the serving policy (bumping model_version).
//
//   * schedule() reconstructs the evaluation window seen so far,
//     indexes it and runs the serving policy — cached until new eval
//     events or a model swap invalidate it.
//
// Evaluation-day folds summarize a 2-day reconstruction window. They
// assume screen sessions span at most one midnight (true of synthesized
// and sanitized traces): the window always contains a day's governing
// screen edges. Records arriving for already-closed days are appended
// to the store (later reconstructions see them) but counted as
// late_events and never re-folded — folds are deterministic,
// at-most-once.
//
// Not thread-safe: a session is owned by exactly one shard worker
// (daemon/shard.hpp), which serializes all access.
#pragma once

#include <cstdint>
#include <memory>
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
  bool degraded = false;
  std::string degraded_reason;
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
  void fold_through(int day);
  void fold_day(int day);
  mining::DayContribution summarize_window(int day) const;
  void complete_training();
  void attempt_refresh(int eval_day);
  /// Raw reconstruction of the training window (transfers clipped at
  /// the boundary like UserTrace::slice_days clips); the miner repairs
  /// it when it must.
  UserTrace training_trace() const;
  /// Tolerant reconstruction of relative evaluation days
  /// [0, horizon_days), shifted to the evaluation epoch, with the
  /// synthetic screen-on edge when a session straddled the training
  /// boundary.
  fault::SanitizeResult eval_trace(int horizon_days) const;

  UserSessionConfig config_;
  policy::NetMasterConfig policy_config_;
  TimeMs train_end_ = 0;

  service::RecordStore store_;  ///< every ingested record (the §V DB)
  /// Records of days [current_day_ - 1, current_day_] — the fold
  /// window. Pruned at each day close; the reason folds stay O(2 days).
  std::vector<service::Record> window_records_;
  int current_day_ = 0;

  service::ModelLifecycle lifecycle_;
  std::unique_ptr<policy::NetMasterPolicy> policy_;

  TimeMs screen_open_since_ = -1;  ///< ingest-side session pairing state
  bool eval_screen_open_ = false;  ///< session straddled the boundary
  std::uint64_t eval_events_ = 0;

  ScheduleResult cached_;
  bool cache_valid_ = false;
  std::uint64_t cache_events_ = 0;
  int cache_version_ = 0;

  UserSessionStats stats_;
};

}  // namespace netmaster::daemon
