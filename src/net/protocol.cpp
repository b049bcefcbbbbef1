#include "net/protocol.hpp"

#include <charconv>
#include <string>
#include <string_view>

namespace netmaster::net {

namespace {

/// Splits on runs of spaces (the grammar never produces empty tokens).
/// The views point into `line`; `tokens` is the caller's reused storage.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
}

template <typename Int>
bool parse_int(std::string_view token, Int& out) {
  const char* first = token.data();
  const char* last = first + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_bool(std::string_view token, bool& out) {
  if (token == "0") {
    out = false;
    return true;
  }
  if (token == "1") {
    out = true;
    return true;
  }
  return false;
}

bool fail(std::string& error, std::string_view message) {
  error = message;
  return false;
}

}  // namespace

bool parse_request(std::string_view line, Request& out,
                   std::string& error) {
  // Reused across calls on this thread: an ingest line parses without
  // allocating.
  thread_local std::vector<std::string_view> tok;
  tokenize(line, tok);
  if (tok.empty()) return fail(error, "empty request");
  out = Request{};

  const std::string_view verb = tok[0];
  if (verb == "stats" || verb == "drain" || verb == "shutdown") {
    if (tok.size() != 1)
      return fail(error, std::string(verb) + " takes no arguments");
    out.kind = verb == "stats"  ? RequestKind::kStats
               : verb == "drain" ? RequestKind::kDrain
                                 : RequestKind::kShutdown;
    return true;
  }

  if (verb == "user") {
    // user <id> <train_days> <num_days> <app0> [...]
    if (tok.size() < 5)
      return fail(error, "user needs <id> <train_days> <num_days> <apps...>");
    out.kind = RequestKind::kUser;
    if (!parse_int(tok[1], out.user)) return fail(error, "bad user id");
    if (!parse_int(tok[2], out.train_days) || out.train_days <= 0)
      return fail(error, "bad train_days");
    if (!parse_int(tok[3], out.num_days) ||
        out.num_days <= out.train_days)
      return fail(error, "num_days must exceed train_days");
    if (out.num_days > kMaxTraceDays)
      return fail(error, "num_days must be at most " +
                             std::to_string(kMaxTraceDays));
    if (out.train_days % 7 != 0)
      return fail(error, "train_days must be a multiple of 7");
    out.apps.assign(tok.begin() + 4, tok.end());
    return true;
  }

  if (verb == "finish" || verb == "get-schedule") {
    if (tok.size() != 2)
      return fail(error, std::string(verb) + " needs exactly <user>");
    out.kind = verb == "finish" ? RequestKind::kFinish
                                : RequestKind::kGetSchedule;
    if (!parse_int(tok[1], out.user)) return fail(error, "bad user id");
    return true;
  }

  if (verb == "ingest") {
    // ingest <user> <kind> <t> [...]
    if (tok.size() < 4)
      return fail(error, "ingest needs <user> <kind> <t> ...");
    out.kind = RequestKind::kIngest;
    if (!parse_int(tok[1], out.user)) return fail(error, "bad user id");
    service::Record& r = out.record;
    if (!parse_int(tok[3], r.time) || r.time < 0)
      return fail(error, "bad timestamp");
    const std::string_view kind = tok[2];
    if (kind == "screen-on" || kind == "screen-off") {
      if (tok.size() != 4)
        return fail(error, "screen event takes only <t>");
      r.kind = kind == "screen-on" ? service::RecordKind::kScreenOn
                                   : service::RecordKind::kScreenOff;
      return true;
    }
    if (kind == "app") {
      if (tok.size() != 6)
        return fail(error, "app event needs <t> <app> <duration>");
      r.kind = service::RecordKind::kAppForeground;
      if (!parse_int(tok[4], r.app) || r.app < 0)
        return fail(error, "bad app id");
      if (!parse_int(tok[5], r.duration) || r.duration < 0)
        return fail(error, "bad duration");
      return true;
    }
    if (kind == "net") {
      if (tok.size() != 10)
        return fail(error,
                    "net event needs <t> <app> <duration> <down> <up> "
                    "<ui> <def>");
      r.kind = service::RecordKind::kNetworkActivity;
      if (!parse_int(tok[4], r.app) || r.app < 0)
        return fail(error, "bad app id");
      if (!parse_int(tok[5], r.duration) || r.duration < 0)
        return fail(error, "bad duration");
      if (!parse_int(tok[6], r.bytes_down) || r.bytes_down < 0)
        return fail(error, "bad bytes_down");
      if (!parse_int(tok[7], r.bytes_up) || r.bytes_up < 0)
        return fail(error, "bad bytes_up");
      if (!parse_bool(tok[8], r.user_initiated))
        return fail(error, "bad user_initiated flag");
      if (!parse_bool(tok[9], r.deferrable))
        return fail(error, "bad deferrable flag");
      return true;
    }
    return fail(error, "unknown ingest kind '" + std::string(kind) + "'");
  }

  return fail(error, "unknown verb '" + std::string(verb) + "'");
}

std::string format_request(const Request& request) {
  // Reused across calls on this thread; the copy out is exactly sized,
  // which matters to callers that keep many lines.
  thread_local std::string out;
  out.clear();
  switch (request.kind) {
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kDrain:
      return "drain";
    case RequestKind::kShutdown:
      return "shutdown";
    case RequestKind::kFinish:
      out += "finish ";
      append_int(out, request.user);
      return out;
    case RequestKind::kGetSchedule:
      out += "get-schedule ";
      append_int(out, request.user);
      return out;
    case RequestKind::kUser:
      out += "user ";
      append_int(out, request.user);
      out += ' ';
      append_int(out, request.train_days);
      out += ' ';
      append_int(out, request.num_days);
      for (const std::string& app : request.apps) {
        out += ' ';
        out += app;
      }
      return out;
    case RequestKind::kIngest: {
      const service::Record& r = request.record;
      out += "ingest ";
      append_int(out, request.user);
      switch (r.kind) {
        case service::RecordKind::kScreenOn:
          out += " screen-on ";
          append_int(out, r.time);
          break;
        case service::RecordKind::kScreenOff:
          out += " screen-off ";
          append_int(out, r.time);
          break;
        case service::RecordKind::kAppForeground:
          out += " app ";
          append_int(out, r.time);
          out += ' ';
          append_int(out, r.app);
          out += ' ';
          append_int(out, r.duration);
          break;
        default:
          out += " net ";
          append_int(out, r.time);
          out += ' ';
          append_int(out, r.app);
          out += ' ';
          append_int(out, r.duration);
          out += ' ';
          append_int(out, r.bytes_down);
          out += ' ';
          append_int(out, r.bytes_up);
          out += r.user_initiated ? " 1" : " 0";
          out += r.deferrable ? " 1" : " 0";
          break;
      }
      return out;
    }
  }
  return "";
}

std::string ok_response(const std::string& payload) {
  return payload.empty() ? "ok" : "ok " + payload;
}

std::string err_response(const std::string& message) {
  return "err " + message;
}

Request make_screen_request(UserId user, bool on, TimeMs t) {
  Request request;
  request.kind = RequestKind::kIngest;
  request.user = user;
  request.record.kind = on ? service::RecordKind::kScreenOn
                           : service::RecordKind::kScreenOff;
  request.record.time = t;
  return request;
}

Request make_app_request(UserId user, TimeMs t, AppId app,
                         DurationMs duration) {
  Request request;
  request.kind = RequestKind::kIngest;
  request.user = user;
  request.record.kind = service::RecordKind::kAppForeground;
  request.record.time = t;
  request.record.app = app;
  request.record.duration = duration;
  return request;
}

Request make_net_request(UserId user, TimeMs t, AppId app,
                         DurationMs duration, std::int64_t down,
                         std::int64_t up, bool user_initiated,
                         bool deferrable) {
  Request request;
  request.kind = RequestKind::kIngest;
  request.user = user;
  request.record.kind = service::RecordKind::kNetworkActivity;
  request.record.time = t;
  request.record.app = app;
  request.record.duration = duration;
  request.record.bytes_down = down;
  request.record.bytes_up = up;
  request.record.user_initiated = user_initiated;
  request.record.deferrable = deferrable;
  return request;
}

}  // namespace netmaster::net
