// One daemon shard: a worker thread owning the UserSessions of every
// user with hash(user) % num_shards == index.
//
// All mutation flows through a bounded MPSC command queue: producers
// (connection threads, the direct API) block when the queue is full —
// that blocking IS the daemon's backpressure — and the worker applies
// commands strictly in arrival order. Per-user state is therefore
// touched by exactly one thread, so the ingest→fold→mine hot path
// takes no locks beyond the queue's.
//
// One put path. Every command enters through put(), which takes a
// range of commands in FIFO order: it waits for capacity, appends as
// much of the range as fits under one lock (one chunk), and repeats
// until the range is in. A connection's batch of ingests for this
// shard therefore costs one lock and at most one wake-up per chunk,
// not per event; a single command is a range of one.
//
// Wake discipline (the same as net::LineQueue's): put wakes the
// worker only on the empty -> non-empty transition, and the worker
// wakes blocked producers only when its swap found the queue full.
// Both flags are read under the queue lock, and each side sleeps only
// in the state whose exit notifies, so no wake-up is lost. The worker
// takes the whole backlog in one swap, so a burst of commands costs
// it one lock and at most one wake-up.
//
// FIFO ordering makes drain trivial: a Drain command's promise
// resolves only after everything enqueued before it was applied.
// Synchronous requests (add-user, schedule, stats) ride the same
// queue with a promise/future round trip, so they linearize with the
// event stream — a schedule request observes every event ingested
// before it on the same connection.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <variant>

#include "daemon/user_session.hpp"

namespace netmaster::daemon {

/// Snapshot of one shard's aggregate state (summed into DaemonStats).
struct ShardStats {
  std::uint64_t users = 0;
  std::uint64_t users_trained = 0;
  std::uint64_t users_finished = 0;
  std::uint64_t events = 0;
  std::uint64_t late_events = 0;
  std::uint64_t dropped_events = 0;  ///< for unknown/failed users
  std::uint64_t days_folded = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t alarms = 0;
  std::uint64_t schedules = 0;  ///< schedule requests served
  std::size_t queue_depth = 0;  ///< commands waiting at snapshot time

  ShardStats& operator+=(const ShardStats& other);
};

class Shard {
 public:
  /// One monitoring record for one user: the payload of an ingest.
  struct Ingest {
    UserId user = 0;
    service::Record record;
  };

  Shard(int index, std::size_t queue_capacity,
        policy::NetMasterConfig policy_config,
        service::AdaptationConfig adapt);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Registers a user (fails on duplicates). Synchronous.
  void add_user(UserSessionConfig config);

  /// Enqueues one record for `user`; blocks while the queue is full.
  /// Unknown users are counted as dropped when the worker gets there.
  void ingest(UserId user, const service::Record& record);

  /// Enqueues `events` in order, blocking while the queue is full.
  /// Returns how many were enqueued: all of them, unless the shard
  /// stopped first (then a prefix).
  std::size_t ingest(std::span<const Ingest> events);

  /// Enqueues end-of-stream for `user`.
  void finish(UserId user);

  /// Synchronous schedule request (linearized with prior events).
  ScheduleResult schedule(UserId user);

  /// Synchronous stats snapshot.
  ShardStats stats();

  /// Resolves when every command enqueued before it has been applied.
  std::future<void> drain();

  /// Drains and joins the worker; further commands throw. Idempotent.
  void stop();

 private:
  struct AddUserCmd {
    UserSessionConfig config;
    std::promise<void> done;
  };
  struct FinishCmd {
    UserId user = 0;
  };
  struct ScheduleCmd {
    UserId user = 0;
    std::promise<ScheduleResult> result;
  };
  struct StatsCmd {
    std::promise<ShardStats> result;
  };
  struct DrainCmd {
    std::promise<void> done;
  };
  using Command = std::variant<Ingest, AddUserCmd, FinishCmd,
                               ScheduleCmd, StatsCmd, DrainCmd>;

  /// The one enqueue path: appends make(0) .. make(count - 1) in
  /// order, chunk by chunk. Returns how many were enqueued before the
  /// shard stopped (count when it did not).
  template <typename Make>
  std::size_t put(std::size_t count, Make make);
  /// A range of one; throws when the shard has stopped.
  void post(Command command);
  void run();
  void apply(Command& command);
  ShardStats snapshot_locked_free() const;

  const int index_;
  const std::size_t capacity_;
  policy::NetMasterConfig policy_config_;
  service::AdaptationConfig adapt_;

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Command> queue_;
  bool stopping_ = false;

  /// Worker-thread-only state (no lock needed).
  std::unordered_map<UserId, std::unique_ptr<UserSession>> sessions_;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t schedules_served_ = 0;

  std::thread worker_;
};

}  // namespace netmaster::daemon
