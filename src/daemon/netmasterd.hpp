// netmasterd — the long-lived NetMaster service.
//
// Where the eval pipeline replays recorded traces in batch, the daemon
// ingests monitoring events as a stream and serves schedules on
// demand. Users are partitioned across N shards by hash(user) % N
// (daemon/shard.hpp); each shard's worker owns its users' sessions
// outright, so the ingest→fold→mine→schedule path never takes a
// cross-shard lock.
//
// Two entry surfaces share the same core:
//
//   * the direct API (add_user/ingest/finish_user/schedule/...) —
//     used by tests, the bench, and the load generator for zero-copy
//     in-process driving;
//   * the line protocol (net/protocol.hpp) via handle_line(), served
//     over any net::Listener (TCP or in-process) by serve().
//
// serve() handles each connection in batches: it takes every line the
// transport already holds (net::Connection::read_lines), parses each
// once, and applies the batch with one shard put per shard and one
// reply write. An `ingest` line only joins its shard's pending batch
// and queues its `ok`. A `drain` is a posted barrier: it puts the
// pending ingests in, posts one token per shard behind them, and
// holds its `ok drained` — and every reply behind it — until those
// tokens resolve, without waiting. Any other verb, or a rejected line,
// first flushes: the pending ingests go to their shards, the worker
// waits on every outstanding token, and the queued replies go to the
// peer; then it runs on its own and has its reply written at once. At
// the end of a batch the worker checks the tokens without blocking
// and writes every reply up to the first unresolved drain. It blocks
// for input only when no reply is held; with replies held and no
// further line received, it waits on the tokens and writes them first.
// So a connection's requests still apply in FIFO order, a
// `get-schedule` observes every ingest sent before it on the
// connection, a drain's reply means every ingest sent before it has
// been applied, and replies keep the request order — while thread
// handoffs scale with batches, not lines, and no watermark stalls the
// connection. An ingest reply `ok` means the event is queued on its
// shard.
//
// drain() resolves when every event enqueued before it has been fully
// applied (folded, mined, reflected in schedules) — the FIFO shard
// queues make that a token per shard; it blocks on them, where the
// connection loop only posts them. shutdown() drains, stops the
// shards, and closes the listener and every open connection, so a
// blocked serve() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "daemon/shard.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"

namespace netmaster::daemon {

struct DaemonConfig {
  int num_shards = 4;
  /// Per-shard command queue bound; full queues block producers
  /// (ingest backpressure).
  std::size_t queue_capacity = 8192;
  /// Upper bound on registered sessions. Each `user` verb adds one,
  /// so without it one peer could grow the daemon without limit. Past
  /// it add_user throws SessionLimitReached (an `err` reply on the
  /// wire), counted in daemon.sessions.rejected.
  std::size_t max_sessions = 4096;
  policy::NetMasterConfig policy;
  /// Drift adaptation of the serving models, on by default — the
  /// daemon is the online deployment the adaptation loop exists for.
  /// Stationary streams never alarm, so batch equivalence holds.
  service::AdaptationConfig adapt;

  DaemonConfig() { adapt.enable = true; }
};

/// Thrown by Netmasterd::add_user once max_sessions sessions exist.
class SessionLimitReached : public Error {
 public:
  explicit SessionLimitReached(std::size_t max_sessions)
      : Error("session limit reached (max_sessions=" +
              std::to_string(max_sessions) + ")") {}
};

struct DaemonStats {
  ShardStats totals;  ///< summed across shards
  int num_shards = 0;
};

class Netmasterd {
 public:
  explicit Netmasterd(DaemonConfig config = {});
  ~Netmasterd();

  Netmasterd(const Netmasterd&) = delete;
  Netmasterd& operator=(const Netmasterd&) = delete;

  const DaemonConfig& config() const { return config_; }

  // ---- Direct API (thread-safe; all routes through the shards). ----
  /// Throws SessionLimitReached once max_sessions sessions exist.
  void add_user(UserSessionConfig config);
  void ingest(UserId user, const service::Record& record);
  void finish_user(UserId user);
  ScheduleResult schedule(UserId user);
  DaemonStats stats();
  /// Blocks until every previously-enqueued event has been applied.
  void drain();
  /// Drains, stops the shards, closes the listener and every open
  /// connection. Idempotent; the daemon accepts no work afterwards.
  void shutdown();

  // ---- Protocol surface. ----
  /// Applies one request line, returns the response line. Malformed
  /// or failing requests return `err ...`; the daemon never throws on
  /// wire input. A well-formed `shutdown` request sets
  /// `*shutdown_requested` (when given) and leaves the actual
  /// shutdown to the caller, so it can flush the reply first.
  std::string handle_line(const std::string& line,
                          bool* shutdown_requested = nullptr);

  /// Accept loop: serves connections (one thread each, in batches as
  /// described above) until the listener closes — which shutdown()
  /// triggers, including via an in-band `shutdown` request. Connection
  /// workers reap themselves when their conversation ends (no
  /// per-connection state outlives the peer), and serve() returns only
  /// after the last worker has finished. Blocks; run it on its own
  /// thread for a concurrently-driven daemon.
  void serve(net::Listener& listener);

 private:
  std::size_t shard_index(UserId user) const;
  Shard& shard_for(UserId user) { return *shards_[shard_index(user)]; }
  /// handle_line past the parse: applies one well-formed request.
  std::string handle(const net::Request& request, bool* shutdown_requested);
  /// Appends one drain token per shard to `tokens`; each resolves once
  /// its shard has applied everything enqueued before it. Throws when
  /// the daemon is shut down.
  void post_drain(std::vector<std::future<void>>& tokens);
  /// One connection's batched read-apply-reply loop (see above).
  void serve_connection(net::Connection& conn);
  void close_connections();

  DaemonConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> sessions_{0};  ///< registered or registering

  std::mutex serve_mutex_;
  std::condition_variable serve_cv_;  ///< signals worker exits
  std::size_t active_workers_ = 0;
  net::Listener* listener_ = nullptr;
  /// Connections with a live worker; each worker removes its own
  /// entry on exit, shutdown() wakes them all via close().
  std::vector<std::shared_ptr<net::Connection>> connections_;
};

}  // namespace netmaster::daemon
