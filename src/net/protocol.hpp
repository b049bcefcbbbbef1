// The netmasterd wire protocol.
//
// Line-delimited, space-separated ASCII. One request line in, one
// response line out. Grammar (timestamps are trace-epoch TimeMs,
// app fields are indices into the user's app table, booleans are 0/1):
//
//   user <id> <train_days> <num_days> <app0> [<app1> ...]
//   ingest <user> screen-on <t>
//   ingest <user> screen-off <t>
//   ingest <user> app <t> <app> <duration>
//   ingest <user> net <t> <app> <duration> <down> <up> <ui> <def>
//   finish <user>
//   get-schedule <user>
//   stats
//   drain
//   shutdown
//
// Responses are `ok [payload...]` or `err <message>`. App names may
// not contain whitespace (they are tokens). At equal timestamps a
// screen-off must be sent before a screen-on: session reconstruction
// pairs on/off events in arrival order and discards an `on` while a
// session is already open.
//
// This file only parses request lines into a typed Request and
// formats them back (the load generator uses format() to build its
// event stream); daemon semantics live in src/daemon/.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "service/record_store.hpp"
#include "trace/trace.hpp"

namespace netmaster::net {

/// Longest request line a transport accepts, '\n' excluded. Every verb
/// but `user` has a fixed shape: the longest, a `net` ingest, is nine
/// integer fields of at most 20 digits — under 256 bytes. A `user`
/// line also carries the app table, its one variable-length part;
/// 64 KiB holds a thousand 64-byte app names, far past any phone's
/// app count. A peer that sends more without a newline is cut off.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

enum class RequestKind {
  kUser,         ///< register a user (app table + horizon)
  kIngest,       ///< one monitoring record
  kFinish,       ///< end of a user's event stream
  kGetSchedule,  ///< fetch the user's current schedule
  kStats,        ///< daemon counters snapshot
  kDrain,        ///< block until all queued events are applied
  kShutdown,     ///< drain, then stop the daemon
};

/// One parsed request line. Fields beyond `kind` are meaningful only
/// for the kinds that carry them (user/ingest payloads).
struct Request {
  RequestKind kind = RequestKind::kStats;
  UserId user = 0;
  int train_days = 0;                  ///< kUser
  int num_days = 0;                    ///< kUser
  std::vector<std::string> apps;       ///< kUser
  service::Record record;              ///< kIngest
};

/// Parses one request line. Returns false (and sets `error`) on
/// malformed input; never throws on bad wire data. Tokens are views
/// into `line` kept in per-thread storage, so only a `user` line (its
/// app names) or a rejected line allocates.
bool parse_request(std::string_view line, Request& out, std::string& error);

/// Serializes a request back to its wire line (round-trips through
/// parse_request). The load generator builds its streams with this.
std::string format_request(const Request& request);

/// Appends the digits of `v` (base 10, or lowercase base 16) to `out`:
/// the formatting primitive of format_request and the daemon's replies.
template <typename Int>
void append_int(std::string& out, Int v, int base = 10) {
  char digits[24];
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), v, base).ptr);
}

/// Response helpers.
std::string ok_response(const std::string& payload = "");
std::string err_response(const std::string& message);

/// Convenience constructors for the common ingest records.
Request make_screen_request(UserId user, bool on, TimeMs t);
Request make_app_request(UserId user, TimeMs t, AppId app,
                         DurationMs duration);
Request make_net_request(UserId user, TimeMs t, AppId app,
                         DurationMs duration, std::int64_t down,
                         std::int64_t up, bool user_initiated,
                         bool deferrable);

}  // namespace netmaster::net
