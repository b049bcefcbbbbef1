#include "daemon/netmasterd.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"

namespace netmaster::daemon {

namespace {

/// FNV-1a over the executed transfers — a cheap wire-comparable
/// fingerprint of a schedule (two bit-identical schedules share it).
std::uint64_t schedule_digest(const sim::PolicyOutcome& outcome) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    mix(static_cast<std::uint64_t>(t.activity_index));
    mix(static_cast<std::uint64_t>(t.start));
    mix(static_cast<std::uint64_t>(t.duration));
  }
  return h;
}

}  // namespace

Netmasterd::Netmasterd(DaemonConfig config) : config_(config) {
  NM_REQUIRE(config_.num_shards > 0, "num_shards must be positive");
  shards_.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, config_.queue_capacity, config_.policy, config_.adapt));
  }
}

Netmasterd::~Netmasterd() { shutdown(); }

std::size_t Netmasterd::shard_index(UserId user) const {
  // Fibonacci hashing of the id; user ids are often small and dense,
  // and modulo alone would put a sequential fleet on few shards.
  const std::uint64_t h =
      static_cast<std::uint64_t>(user) * 11400714819323198485ULL;
  return static_cast<std::size_t>(
      h % static_cast<std::uint64_t>(shards_.size()));
}

void Netmasterd::add_user(UserSessionConfig config) {
  NM_REQUIRE(!shutdown_.load(), "daemon is shut down");
  // Reserve the slot before registering, so concurrent registrations
  // cannot overshoot the cap; a registration that fails gives it back.
  if (sessions_.fetch_add(1) >= config_.max_sessions) {
    sessions_.fetch_sub(1);
    obs::Registry::global().counter("daemon.sessions.rejected").add(1);
    throw SessionLimitReached(config_.max_sessions);
  }
  const UserId user = config.user;
  try {
    shard_for(user).add_user(std::move(config));
  } catch (...) {
    sessions_.fetch_sub(1);
    throw;
  }
  obs::Registry::global().counter("daemon.users").add(1);
}

void Netmasterd::ingest(UserId user, const service::Record& record) {
  NM_REQUIRE(!shutdown_.load(), "daemon is shut down");
  shard_for(user).ingest(user, record);
}

void Netmasterd::finish_user(UserId user) {
  NM_REQUIRE(!shutdown_.load(), "daemon is shut down");
  shard_for(user).finish(user);
}

ScheduleResult Netmasterd::schedule(UserId user) {
  NM_REQUIRE(!shutdown_.load(), "daemon is shut down");
  return shard_for(user).schedule(user);
}

DaemonStats Netmasterd::stats() {
  NM_REQUIRE(!shutdown_.load(), "daemon is shut down");
  DaemonStats out;
  out.num_shards = static_cast<int>(shards_.size());
  for (auto& shard : shards_) out.totals += shard->stats();
  return out;
}

void Netmasterd::drain() {
  std::vector<std::future<void>> tokens;
  tokens.reserve(shards_.size());
  post_drain(tokens);
  for (auto& token : tokens) token.get();
}

void Netmasterd::post_drain(std::vector<std::future<void>>& tokens) {
  NM_REQUIRE(!shutdown_.load(), "daemon is shut down");
  for (auto& shard : shards_) tokens.push_back(shard->drain());
}

void Netmasterd::shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  // Stop applies the whole backlog before joining, so an in-band
  // `shutdown` still drains everything enqueued before it.
  for (auto& shard : shards_) shard->stop();
  close_connections();
}

void Netmasterd::close_connections() {
  std::vector<std::shared_ptr<net::Connection>> open;
  net::Listener* listener = nullptr;
  {
    std::lock_guard<std::mutex> lock(serve_mutex_);
    open.swap(connections_);
    listener = listener_;
  }
  if (listener != nullptr) listener->close();
  // close() only wakes each connection's blocked reader (the socket
  // transport defers releasing the descriptor); the workers then wind
  // down and reap themselves, and serve() waits for the last of them.
  for (auto& conn : open) conn->close();
}

std::string Netmasterd::handle_line(const std::string& line,
                                    bool* shutdown_requested) {
  net::Request request;
  std::string error;
  if (!net::parse_request(line, request, error)) {
    return net::err_response(error);
  }
  return handle(request, shutdown_requested);
}

std::string Netmasterd::handle(const net::Request& request,
                               bool* shutdown_requested) {
  if (request.kind == net::RequestKind::kShutdown &&
      shutdown_requested != nullptr) {
    *shutdown_requested = true;
  }
  try {
    switch (request.kind) {
      case net::RequestKind::kUser: {
        UserSessionConfig config;
        config.user = request.user;
        config.train_days = request.train_days;
        config.num_days = request.num_days;
        config.app_names = request.apps;
        add_user(std::move(config));
        return net::ok_response();
      }
      case net::RequestKind::kIngest:
        ingest(request.user, request.record);
        return net::ok_response();
      case net::RequestKind::kFinish:
        finish_user(request.user);
        return net::ok_response();
      case net::RequestKind::kGetSchedule: {
        const ScheduleResult result = schedule(request.user);
        std::string reply;
        reply.reserve(160);
        reply = "ok transfers=";
        net::append_int(reply, result.outcome.transfers.size());
        reply += " interrupts=";
        net::append_int(reply, result.outcome.interrupts);
        reply += " duty_releases=";
        net::append_int(reply, result.outcome.duty_releases);
        reply += " model=";
        net::append_int(reply, result.model_version);
        reply += result.degraded ? " degraded=1" : " degraded=0";
        reply += " digest=";
        net::append_int(reply, schedule_digest(result.outcome), 16);
        return reply;
      }
      case net::RequestKind::kStats: {
        const DaemonStats s = stats();
        const std::pair<const char*, std::uint64_t> fields[] = {
            {"ok shards=", static_cast<std::uint64_t>(s.num_shards)},
            {" users=", s.totals.users},
            {" trained=", s.totals.users_trained},
            {" finished=", s.totals.users_finished},
            {" events=", s.totals.events},
            {" late=", s.totals.late_events},
            {" dropped=", s.totals.dropped_events},
            {" folds=", s.totals.days_folded},
            {" refreshes=", s.totals.refreshes},
            {" alarms=", s.totals.alarms},
            {" schedules=", s.totals.schedules},
            {" queued=", s.totals.queue_depth},
        };
        std::string reply;
        reply.reserve(320);
        for (const auto& [name, value] : fields) {
          reply += name;
          net::append_int(reply, value);
        }
        return reply;
      }
      case net::RequestKind::kDrain:
        drain();
        return net::ok_response("drained");
      case net::RequestKind::kShutdown:
        // The reply is written by the caller before shutdown closes
        // the transport — see serve_connection().
        return net::ok_response("shutting down");
    }
  } catch (const std::exception& e) {
    return net::err_response(e.what());
  }
  return net::err_response("unhandled request");
}

void Netmasterd::serve(net::Listener& listener) {
  {
    std::lock_guard<std::mutex> lock(serve_mutex_);
    NM_REQUIRE(listener_ == nullptr, "serve() is already running");
    listener_ = &listener;
  }
  if (shutdown_.load()) listener.close();

  while (std::unique_ptr<net::Connection> accepted = listener.accept()) {
    std::shared_ptr<net::Connection> conn = std::move(accepted);
    {
      std::lock_guard<std::mutex> lock(serve_mutex_);
      if (shutdown_.load()) {
        conn->close();
        break;
      }
      connections_.push_back(conn);
      ++active_workers_;
    }
    // Detached: each worker reaps itself when its conversation ends —
    // prunes its connection entry and signals the wait below — so a
    // long-lived daemon holds state only for live connections instead
    // of accumulating finished threads until serve() exits.
    std::thread([this, conn] {
      try {
        serve_connection(*conn);
      } catch (const net::LineTooLong& e) {
        // An oversize line cannot be resynchronized: one error reply,
        // then the close below.
        try {
          conn->write_line(net::err_response(e.what()));
        } catch (const std::exception&) {
        }
      } catch (const std::exception&) {
        // A peer vanishing mid-write tears down this conversation,
        // never the daemon.
      }
      conn->close();
      {
        std::lock_guard<std::mutex> lock(serve_mutex_);
        std::erase(connections_, conn);
        --active_workers_;
        // Under the lock: once the waiter in serve() observes zero
        // workers the daemon may be destroyed, so the notify must not
        // touch the condition variable after that.
        serve_cv_.notify_all();
      }
    }).detach();
  }
  std::unique_lock<std::mutex> lock(serve_mutex_);
  serve_cv_.wait(lock, [&] { return active_workers_ == 0; });
  listener_ = nullptr;
}

void Netmasterd::serve_connection(net::Connection& conn) {
  net::LineBatch lines;
  // Replies not yet written, in request order. A drain's reply is
  // held until its tokens resolve, and so is every reply behind it.
  std::vector<std::string> replies;
  // Per shard: the ingests parsed since they were last posted, and
  // where each one's reply sits in `replies`.
  std::vector<std::vector<Shard::Ingest>> pending(shards_.size());
  std::vector<std::vector<std::size_t>> reply_at(shards_.size());
  // The posted drains whose replies are held, oldest first: where the
  // reply sits in `replies` and where the drain's tokens (one per
  // shard) end in `tokens`.
  struct HeldDrain {
    std::size_t reply;
    std::size_t tokens_end;
  };
  std::vector<HeldDrain> held;
  std::vector<std::future<void>> tokens;
  net::Request request;
  std::string error;

  auto post_pending = [&] {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (pending[s].empty()) continue;
      const std::size_t queued =
          shutdown_.load() ? 0 : shards_[s]->ingest(pending[s]);
      // An ingest the shard did not take (the daemon is stopping) gets
      // the one-line path's reply: the same error handle_line gives.
      for (std::size_t i = queued; i < pending[s].size(); ++i) {
        net::Request single;
        single.kind = net::RequestKind::kIngest;
        single.user = pending[s][i].user;
        single.record = pending[s][i].record;
        replies[reply_at[s][i]] = handle(single, nullptr);
      }
      pending[s].clear();
      reply_at[s].clear();
    }
  };

  // Posts the pending ingests, then writes every reply up to the first
  // held drain with an unresolved token. With `wait` it waits for every
  // token instead, so everything goes out.
  auto release = [&](bool wait) {
    post_pending();
    std::size_t resolved = 0;  // leading held drains with every token done
    for (std::size_t t = 0; resolved < held.size(); ++resolved) {
      for (; t < held[resolved].tokens_end; ++t) {
        if (wait) {
          tokens[t].wait();
        } else if (tokens[t].wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready) {
          break;
        }
      }
      if (t < held[resolved].tokens_end) break;
    }
    const std::size_t written =
        resolved < held.size() ? held[resolved].reply : replies.size();
    if (written > 0) {
      conn.write_lines({replies.data(), written});
      replies.erase(replies.begin(),
                    replies.begin() + static_cast<std::ptrdiff_t>(written));
    }
    const std::size_t done = resolved > 0 ? held[resolved - 1].tokens_end : 0;
    tokens.erase(tokens.begin(),
                 tokens.begin() + static_cast<std::ptrdiff_t>(done));
    held.erase(held.begin(),
               held.begin() + static_cast<std::ptrdiff_t>(resolved));
    for (HeldDrain& d : held) {
      d.reply -= written;
      d.tokens_end -= done;
    }
  };

  while (true) {
    // Sleep for input only when no reply is held: a client that waits
    // for its drain reply before sending more must get it.
    bool open = false;
    try {
      open = conn.read_lines(lines, held.empty());
    } catch (const net::LineTooLong&) {
      release(true);  // the replies to the lines before it go first
      throw;
    }
    if (!open) break;
    if (lines.empty()) {
      // Nothing more to read yet: the held replies go out first.
      release(true);
      continue;
    }
    for (const std::string& line : lines) {
      const bool parsed = net::parse_request(line, request, error);
      if (parsed && request.kind == net::RequestKind::kIngest) {
        const std::size_t s = shard_index(request.user);
        pending[s].push_back({request.user, request.record});
        reply_at[s].push_back(replies.size());
        replies.push_back(net::ok_response());
        continue;
      }
      if (parsed && request.kind == net::RequestKind::kDrain) {
        // A posted barrier: its tokens queue behind the ingests before
        // it, and its reply is held until they resolve.
        post_pending();
        const std::size_t first = tokens.size();
        try {
          post_drain(tokens);
        } catch (const std::exception& e) {
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(first),
                       tokens.end());
          replies.push_back(net::err_response(e.what()));
          continue;
        }
        held.push_back({replies.size(), tokens.size()});
        replies.push_back(net::ok_response("drained"));
        continue;
      }
      // Every other request sees the ingests before it applied in
      // order, and its reply goes out right after it runs.
      release(true);
      bool stop = false;
      replies.push_back(parsed ? handle(request, &stop)
                               : net::err_response(error));
      release(true);
      if (stop) {
        shutdown();  // closes the listener and every connection
        return;
      }
    }
    release(false);
  }
  release(true);
}

}  // namespace netmaster::daemon
