// EvalSession — the cached per-user state every §VI experiment replays
// against: the train/eval trace split (held in a UserStore, possibly
// spilled to disk), the engine::TraceIndex over the evaluation trace
// (a self-contained copy of its records), the evaluation trace's
// policy-invariant sim::TraceTotals, the baseline reference SimReport,
// and one lazy memo of the user's mined training trace
// (mining::MinedHabits). A fleet cell replays and accounts from the
// index and the totals alone; a NetMaster cell builds its policy from
// the memo, so a session mines each user at most once, on the first
// grid that asks, and pins the store for mining only then.
// Built once (in parallel: the constructor runs one job graph of
// per-user set-up work to completion), immutable afterwards apart
// from the habit memo (written at most once per user), and
// shared by reference across every sweep point and policy cell, so a
// 12-point sweep pays trace synthesis and indexing exactly once
// instead of 12 times. Every fleet run evaluates a built session.
//
// Memory model: each user's replay working set is the record vectors
// its TraceIndex holds; the traces themselves live in the UserStore,
// which — when a cache cap is configured — keeps only the hot users
// hydrated and rehydrates the rest from compact UserBlob spill files
// on demand.
// Serialization is lossless, so fleet results are bit-for-bit
// identical whatever the cap.
//
// Set-up decodes no blob: each user's traces (synthesized, or handed
// in) are admitted and prepared from the Pin admission returns, which
// is then dropped, so a capped build frees each user's traces as its
// preparation ends. Residency after construction is the same at every
// worker count: a build that overflowed the cap (evicted anyone)
// leaves no user hydrated, counting the drops as evictions; a fleet
// that fits the cap stays fully hydrated.
//
// Per-user preparation failures (a poisoned trace, a baseline that
// cannot replay) are captured in the session instead of thrown: the
// user is marked not-ok and every fleet run over the session reports
// that row as an isolated FleetFailure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/trace_index.hpp"
#include "eval/user_store.hpp"
#include "mining/habits.hpp"
#include "policy/netmaster.hpp"
#include "sim/accounting.hpp"
#include "synth/drift.hpp"
#include "synth/profiles.hpp"
#include "trace/trace.hpp"

namespace netmaster::eval {

/// Common experiment setup: train on the first `train_days`, evaluate
/// on the following `eval_days`. Both default to whole weeks so the
/// weekday/weekend regimes stay aligned between training and
/// evaluation.
struct ExperimentConfig {
  int train_days = 14;
  int eval_days = 7;
  std::uint64_t seed = 42;
  policy::NetMasterConfig netmaster;
  /// Trace cache knobs; the default (cap 0) keeps every user resident.
  UserStoreConfig store;
};

/// Generates and splits the traces for one profile.
VolunteerTraces make_traces(const synth::UserProfile& profile,
                            const ExperimentConfig& config);

/// Like make_traces, but the user's habits drift per `spec` over the
/// generated horizon. `spec.onset_day` is taken relative to the start
/// of the *evaluation* window (onset 0 = the first evaluated day), so
/// training stays stationary for non-negative onsets and a mined model
/// goes stale mid-evaluation — the scenario the drift detector exists
/// for. A kNone spec reproduces make_traces bit for bit.
VolunteerTraces make_drifting_traces(const synth::UserProfile& profile,
                                     const ExperimentConfig& config,
                                     const synth::DriftSpec& spec);

/// Immutable per-user evaluation state shared across sweep points and
/// policy cells. Movable, non-copyable (it owns one TraceIndex per
/// user, plus the trace store).
class EvalSession {
 public:
  /// Synthesizes, splits, indexes and baseline-accounts every profile
  /// on the work-stealing pool as independent per-user
  /// trace_gen -> prepare chains. A
  /// profile whose synthesis, spill or preparation throws is marked
  /// failed (`ok(u)` false) — construction itself never throws on bad
  /// user data or a failing spill directory.
  EvalSession(const std::vector<synth::UserProfile>& profiles,
              const ExperimentConfig& config, unsigned max_threads = 0);

  /// Same, over pre-built (possibly recorded/corrupted) trace pairs,
  /// one task per user that moves its pair into the store and
  /// prepares.
  EvalSession(std::vector<VolunteerTraces> volunteers,
              const ExperimentConfig& config, unsigned max_threads = 0);

  EvalSession(EvalSession&&) = default;
  EvalSession& operator=(EvalSession&&) = default;
  EvalSession(const EvalSession&) = delete;
  EvalSession& operator=(const EvalSession&) = delete;

  std::size_t num_users() const { return users_.size(); }
  const ExperimentConfig& config() const { return config_; }

  /// False when user u's preparation failed; `prep_error(u)` says why.
  bool ok(std::size_t u) const { return user(u).prep_error.empty(); }
  const std::string& prep_error(std::size_t u) const {
    return user(u).prep_error;
  }
  /// Number of users with usable state.
  std::size_t num_ok() const;

  UserId user_id(std::size_t u) const { return user(u).id; }
  const std::string& profile_name(std::size_t u) const {
    return user(u).profile_name;
  }
  /// Hydrated train/eval traces for user u. Returns a Pin: rehydrates
  /// from the spill file when the user is cold and keeps the traces
  /// alive while held. Pin once per unit of work, not per field
  /// access: run_fleet pins a row at most once, on the first read of
  /// its training trace, and shares the pin across the row's cells.
  UserStore::Pin traces(std::size_t u) const { return store_->pin(u); }
  /// The shared evaluation-trace index, its policy-invariant report
  /// fields, and the baseline reference report. Contract: only valid
  /// when `ok(u)`.
  const engine::TraceIndex& index(std::size_t u) const;
  const sim::TraceTotals& totals(std::size_t u) const;
  const sim::SimReport& baseline(std::size_t u) const;

  /// User u's training trace mined by mining::mine_habits, once per
  /// session: a lazy, single-flight memo. The first caller mines the
  /// trace `read_training` returns (a fleet cell passes its row's pin,
  /// so later grids pin no row to mine); concurrent callers wait for
  /// that one mine and later ones read the memo without a lock. If the
  /// read or the mine throws, nothing is kept: the exception reaches
  /// that caller and the next call retries. Contract: only valid when
  /// `ok(u)`.
  const mining::MinedHabits& habits(
      std::size_t u,
      const std::function<const UserTrace&()>& read_training) const;

  /// The trace cache (resident bytes, eviction counts — bench fodder).
  const UserStore& store() const { return *store_; }
  /// Total heap bytes the prepared users' replay indexes hold
  /// (engine::TraceIndex::bytes). The name predates the indexes'
  /// record vectors, when each index copied its trace into an arena; it
  /// stays because perfbench reports it as `mem.arena.bytes`.
  std::size_t arena_bytes() const;

 private:
  struct UserState {
    UserId id = 0;
    std::string profile_name;
    std::unique_ptr<engine::TraceIndex> index;
    sim::TraceTotals totals;
    sim::SimReport baseline;
    std::string prep_error;  ///< empty = usable
    /// habits()' memo: written at most once, under habits_mutex, and
    /// published to lock-free readers by habits_ready.
    mutable std::mutex habits_mutex;
    mutable std::atomic<bool> habits_ready{false};
    mutable std::optional<mining::MinedHabits> habits;
  };

  const UserState& user(std::size_t u) const;
  /// The per-user prepare body, on the traces its task just admitted:
  /// validate, build the index and the trace totals,
  /// account the baseline. Never throws; failures land in prep_error.
  void prepare_user(std::size_t u, const VolunteerTraces& traces);

  ExperimentConfig config_;
  std::unique_ptr<UserStore> store_;
  std::vector<UserState> users_;
};

}  // namespace netmaster::eval
