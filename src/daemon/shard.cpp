#include "daemon/shard.hpp"

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
  /// Commands enqueued across *all* shards: every put adds its count
  /// up front and subtracts the part the stopped shard refused, every
  /// worker subtracts the batch it took, so it never reads below zero.
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
      policy_config_(policy_config),
      adapt_(adapt),
      queue_(queue_capacity) {
  worker_ = std::thread([this] { run(); });
}

Shard::~Shard() { stop(); }

template <typename Make>
std::size_t Shard::put(std::size_t count, Make make) {
  obs::Gauge& depth = ShardMetrics::get().queue_depth;
  depth.add(static_cast<double>(count));
  const std::size_t done = queue_.put(count, make);
  if (done < count) depth.add(-static_cast<double>(count - done));
  return done;
}

void Shard::post(Command command) {
  NM_REQUIRE(put(1, [&](std::size_t) { return std::move(command); }) == 1,
             "command posted to a stopped shard");
}

template <typename Work>
std::future<void> Shard::call(Work work) {
  std::packaged_task<void()> task(std::move(work));
  std::future<void> done = task.get_future();
  post(std::move(task));
  return done;
}

void Shard::count_dropped() {
  ++dropped_events_;
  ShardMetrics::get().dropped.add(1);
}

void Shard::add_user(UserSessionConfig config) {
  call([&] {
    const UserId id = config.user;
    NM_REQUIRE(!sessions_.contains(id), "user already registered");
    sessions_.emplace(id, std::make_unique<UserSession>(
                              std::move(config), policy_config_, adapt_));
  }).get();
}

void Shard::ingest(UserId user, const service::Record& record) {
  post(Ingest{user, record});
}

std::size_t Shard::ingest(std::span<const Ingest> events) {
  return put(events.size(),
             [&](std::size_t i) -> Command { return events[i]; });
}

void Shard::finish(UserId user) {
  // Not awaited: a finish for an unknown user, or one that fails,
  // counts as dropped.
  call([this, user] {
    const auto it = sessions_.find(user);
    if (it == sessions_.end()) {
      count_dropped();
      return;
    }
    try {
      it->second->finish();
    } catch (const std::exception&) {
      count_dropped();
    }
  });
}

ScheduleResult Shard::schedule(UserId user) {
  ScheduleResult result;
  call([&] {
    const auto it = sessions_.find(user);
    NM_REQUIRE(it != sessions_.end(), "unknown user");
    result = it->second->schedule();
    ++schedules_served_;
  }).get();
  return result;
}

ShardStats Shard::stats() {
  ShardStats out;
  call([&] {
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
    out.queue_depth = queue_.size();
  }).get();
  return out;
}

std::future<void> Shard::drain() {
  return call([] {});
}

void Shard::stop() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

void Shard::run() {
  // Flush this worker's span aggregates when it exits so daemon.fold /
  // daemon.mine / daemon.schedule timings reach the global registry.
  struct SpanFlush {
    ~SpanFlush() { obs::flush_thread_spans(); }
  } flush;

  std::vector<Command> batch;
  while (queue_.pop_all(batch)) {
    ShardMetrics::get().queue_depth.add(-static_cast<double>(batch.size()));
    for (Command& command : batch) apply(command);
    batch.clear();
  }
}

void Shard::apply(Command& command) {
  if (auto* task = std::get_if<std::packaged_task<void()>>(&command)) {
    (*task)();
    return;
  }
  const Ingest& ingest = std::get<Ingest>(command);
  const auto it = sessions_.find(ingest.user);
  if (it == sessions_.end()) {
    count_dropped();
    return;
  }
  try {
    it->second->ingest(ingest.record);
    ShardMetrics::get().ingested.add(1);
  } catch (const std::exception&) {
    count_dropped();
  }
}

}  // namespace netmaster::daemon
