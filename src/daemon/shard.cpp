#include "daemon/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace netmaster::daemon {

namespace {

struct ShardMetrics {
  obs::Counter& ingested;
  obs::Counter& dropped;
  /// Commands enqueued across *all* shards: every chunk a put appends
  /// adds its size, every worker subtracts the batch it drained.
  /// Deltas, not set() — a last-writer-wins snapshot of one shard's
  /// size is meaningless once num_shards > 1.
  obs::Gauge& queue_depth;

  static ShardMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static ShardMetrics m{
        reg.counter("daemon.ingest.events"),
        reg.counter("daemon.ingest.dropped"),
        reg.gauge("daemon.shard.queue_depth"),
    };
    return m;
  }
};

}  // namespace

ShardStats& ShardStats::operator+=(const ShardStats& other) {
  users += other.users;
  users_trained += other.users_trained;
  users_finished += other.users_finished;
  events += other.events;
  late_events += other.late_events;
  dropped_events += other.dropped_events;
  days_folded += other.days_folded;
  refreshes += other.refreshes;
  alarms += other.alarms;
  schedules += other.schedules;
  queue_depth += other.queue_depth;
  return *this;
}

Shard::Shard(int index, std::size_t queue_capacity,
             policy::NetMasterConfig policy_config,
             service::AdaptationConfig adapt)
    : index_(index),
      capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      policy_config_(policy_config),
      adapt_(adapt) {
  worker_ = std::thread([this] { run(); });
}

Shard::~Shard() { stop(); }

template <typename Make>
std::size_t Shard::put(std::size_t count, Make make) {
  std::size_t done = 0;
  while (done < count) {
    bool was_empty = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [&] { return stopping_ || queue_.size() < capacity_; });
      if (stopping_) break;
      was_empty = queue_.empty();
      const std::size_t n =
          std::min(count - done, capacity_ - queue_.size());
      for (const std::size_t end = done + n; done < end; ++done) {
        queue_.push_back(make(done));
      }
      ShardMetrics::get().queue_depth.add(static_cast<double>(n));
    }
    // The worker sleeps only on an empty queue: the rest of a burst
    // finds it awake (or about to swap) and needs no wake-up.
    if (was_empty) not_empty_.notify_one();
  }
  return done;
}

void Shard::post(Command command) {
  NM_REQUIRE(put(1, [&](std::size_t) { return std::move(command); }) == 1,
             "command posted to a stopped shard");
}

void Shard::add_user(UserSessionConfig config) {
  AddUserCmd cmd;
  cmd.config = std::move(config);
  std::future<void> done = cmd.done.get_future();
  post(std::move(cmd));
  done.get();
}

void Shard::ingest(UserId user, const service::Record& record) {
  post(Ingest{user, record});
}

std::size_t Shard::ingest(std::span<const Ingest> events) {
  return put(events.size(),
             [&](std::size_t i) -> Command { return events[i]; });
}

void Shard::finish(UserId user) { post(FinishCmd{user}); }

ScheduleResult Shard::schedule(UserId user) {
  ScheduleCmd cmd;
  cmd.user = user;
  std::future<ScheduleResult> result = cmd.result.get_future();
  post(std::move(cmd));
  return result.get();
}

ShardStats Shard::stats() {
  StatsCmd cmd;
  std::future<ShardStats> result = cmd.result.get_future();
  post(std::move(cmd));
  return result.get();
}

std::future<void> Shard::drain() {
  DrainCmd cmd;
  std::future<void> done = cmd.done.get_future();
  post(std::move(cmd));
  return done;
}

void Shard::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Shard::run() {
  // Flush this worker's span aggregates when it exits so daemon.fold /
  // daemon.mine / daemon.schedule timings reach the global registry.
  struct SpanFlush {
    ~SpanFlush() { obs::flush_thread_spans(); }
  } flush;

  std::deque<Command> batch;
  while (true) {
    bool was_full = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock,
                      [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty() && stopping_) return;
      // Take the whole backlog in one swap: commands apply lock-free
      // and in order, producers get a burst of fresh capacity.
      was_full = queue_.size() >= capacity_;
      batch.swap(queue_);
      ShardMetrics::get().queue_depth.add(
          -static_cast<double>(batch.size()));
    }
    // Producers sleep only on a full queue.
    if (was_full) not_full_.notify_all();
    for (Command& command : batch) apply(command);
    batch.clear();
  }
}

void Shard::apply(Command& command) {
  if (auto* ingest = std::get_if<Ingest>(&command)) {
    const auto it = sessions_.find(ingest->user);
    if (it == sessions_.end()) {
      ++dropped_events_;
      ShardMetrics::get().dropped.add(1);
      return;
    }
    try {
      it->second->ingest(ingest->record);
      ShardMetrics::get().ingested.add(1);
    } catch (const std::exception&) {
      ++dropped_events_;
      ShardMetrics::get().dropped.add(1);
    }
    return;
  }
  if (auto* add = std::get_if<AddUserCmd>(&command)) {
    try {
      const UserId id = add->config.user;
      NM_REQUIRE(sessions_.find(id) == sessions_.end(),
                 "user already registered");
      sessions_.emplace(id, std::make_unique<UserSession>(
                                add->config, policy_config_, adapt_));
      add->done.set_value();
    } catch (...) {
      add->done.set_exception(std::current_exception());
    }
    return;
  }
  if (auto* fin = std::get_if<FinishCmd>(&command)) {
    const auto it = sessions_.find(fin->user);
    if (it == sessions_.end()) {
      ++dropped_events_;
      ShardMetrics::get().dropped.add(1);
      return;
    }
    try {
      it->second->finish();
    } catch (const std::exception&) {
      ++dropped_events_;
      ShardMetrics::get().dropped.add(1);
    }
    return;
  }
  if (auto* sched = std::get_if<ScheduleCmd>(&command)) {
    try {
      const auto it = sessions_.find(sched->user);
      NM_REQUIRE(it != sessions_.end(), "unknown user");
      sched->result.set_value(it->second->schedule());
      ++schedules_served_;
    } catch (...) {
      sched->result.set_exception(std::current_exception());
    }
    return;
  }
  if (auto* stats = std::get_if<StatsCmd>(&command)) {
    stats->result.set_value(snapshot_locked_free());
    return;
  }
  if (auto* drain = std::get_if<DrainCmd>(&command)) {
    drain->done.set_value();
    return;
  }
}

ShardStats Shard::snapshot_locked_free() const {
  // Runs on the worker thread: session state needs no lock; only the
  // queue depth peek takes the queue mutex.
  ShardStats out;
  out.users = sessions_.size();
  for (const auto& [id, session] : sessions_) {
    const UserSessionStats& s = session->stats();
    out.users_trained += s.trained ? 1 : 0;
    out.users_finished += s.finished ? 1 : 0;
    out.events += s.events;
    out.late_events += s.late_events;
    out.days_folded += s.days_folded;
    out.refreshes += s.refreshes;
    out.alarms += s.alarms;
  }
  out.dropped_events = dropped_events_;
  out.schedules = schedules_served_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.queue_depth = queue_.size();
  }
  return out;
}

}  // namespace netmaster::daemon
