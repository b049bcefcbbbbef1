// One daemon shard: a worker thread owning the UserSessions of every
// user with hash(user) % num_shards == index.
//
// All mutation flows through one bounded command queue, a BatchQueue
// (common/batch_queue.hpp, which states its wake discipline):
// producers (connection threads, the direct API) block when it is full
// — that blocking IS the daemon's backpressure — and the worker takes
// the whole backlog at once and applies it strictly in arrival order.
// Per-user state is therefore touched by exactly one thread, so the
// ingest→fold→mine hot path takes no locks beyond the queue's.
//
// A command is either an Ingest (the hot path: a plain value, one
// chunked put per batch of events) or a task that runs on the worker.
// Every other request is one such task: add-user, schedule, stats,
// finish and drain (an empty task). FIFO order makes drain trivial —
// its future resolves only after everything enqueued before it was
// applied — and makes the synchronous requests linearize with the
// event stream: a schedule request observes every event ingested
// before it on the same connection. A task's exception reaches the
// caller through its future.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <variant>

#include "common/batch_queue.hpp"
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
  using Command = std::variant<Ingest, std::packaged_task<void()>>;

  /// The one enqueue path: appends make(0) .. make(count - 1) in
  /// order, chunk by chunk. Returns how many were enqueued before the
  /// shard stopped (count when it did not).
  template <typename Make>
  std::size_t put(std::size_t count, Make make);
  /// A range of one; throws when the shard has stopped.
  void post(Command command);
  /// Posts `work` as a task; the future reports its end or exception.
  template <typename Work>
  std::future<void> call(Work work);
  void run();
  void apply(Command& command);
  void count_dropped();

  const int index_;
  policy::NetMasterConfig policy_config_;
  service::AdaptationConfig adapt_;

  BatchQueue<Command> queue_;

  /// Worker-thread-only state (no lock needed).
  std::unordered_map<UserId, std::unique_ptr<UserSession>> sessions_;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t schedules_served_ = 0;

  std::thread worker_;
};

}  // namespace netmaster::daemon
