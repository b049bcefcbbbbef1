// Deterministic load generator for netmasterd.
//
// A LoadPlan is a synthetic fleet rendered as the daemon's input: the
// per-user session configs, the time-ordered monitoring event stream,
// and the batch-path ground truth (training/eval trace slices) the
// daemon's schedules are checked against. Plans are seeded and fully
// deterministic — the same LoadConfig always produces the same events
// in the same order, so daemon tests and the throughput bench replay
// identical streams.
//
// Fleet generation matches eval::make_traces bit-for-bit: each user is
// a synth:: archetype (cycling through all eight), its full trace is
// synth::generate_trace(profile, train+eval days, seed), and the
// ground-truth slices are slice_days of that same trace — so a
// schedule computed by the daemon can be compared bitwise against
// NetMasterPolicy(training).run(TraceIndex(eval)).
//
// Event ordering: events are stable-sorted by (time, priority) with
// priority screen-off < screen-on < app < net. Ties matter — the
// store's reconstruction pairs the FIRST off after an on, so a session
// ending exactly when the next begins must stream its off first (see
// net/protocol.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/netmasterd.hpp"
#include "daemon/user_session.hpp"
#include "service/record_store.hpp"
#include "trace/trace.hpp"

namespace netmaster::daemon {

struct LoadConfig {
  int users = 8;
  int train_days = 14;  ///< must be a positive multiple of 7
  int eval_days = 7;
  std::uint64_t seed = 42;
};

/// One synthetic user: the daemon-side registration plus the batch
/// ground truth its streamed schedule must reproduce.
struct LoadUser {
  UserSessionConfig session;
  UserTrace training;  ///< slice_days(0, train_days) of the full trace
  UserTrace eval;      ///< slice_days(train_days, eval_days)
};

/// One monitoring event addressed to a user.
struct LoadEvent {
  TimeMs time = 0;
  int priority = 0;  ///< tie-break: off=0, on=1, app=2, net=3
  UserId user = 0;
  service::Record record;
};

struct LoadPlan {
  std::vector<LoadUser> users;
  std::vector<LoadEvent> events;  ///< sorted by (time, priority), stable
};

/// Builds the deterministic plan for `config`.
LoadPlan build_load_plan(const LoadConfig& config);

/// Renders one full-horizon trace as its monitoring event stream
/// (appended unsorted — run sort_events once all users are in), through
/// the shared service::for_each_record derivation. Daemon tests use it to
/// stream non-stationary traces the archetype-cycling plan builder does
/// not produce.
void append_trace_events(const UserTrace& full, UserId user,
                         std::vector<LoadEvent>& out);

/// Stable-sorts events by (time, priority) — the wire order.
void sort_events(std::vector<LoadEvent>& events);

/// Drives a daemon through the plan via the direct API: registers every
/// user, ingests every event in order, then finishes every user.
void replay_plan(const LoadPlan& plan, Netmasterd& daemon);

/// Renders the plan as protocol request lines (net/protocol.hpp) in the
/// same order replay_plan issues them — user registrations, the event
/// stream, then the finish markers. Feed these to a connection (or
/// handle_line) to drive a daemon over the wire.
std::vector<std::string> plan_request_lines(const LoadPlan& plan);

}  // namespace netmaster::daemon
