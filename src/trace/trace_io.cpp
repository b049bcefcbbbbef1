#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace netmaster {

namespace {

[[noreturn]] void parse_fail(int line, const std::string& msg) {
  std::ostringstream os;
  os << "trace parse error at line " << line << ": " << msg;
  throw TraceParseError(os.str());
}

/// Splits a CSV line on commas. App names contain no commas by model
/// construction (validated on write).
std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(pos));
      break;
    }
    fields.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return fields;
}

std::int64_t parse_int(std::string_view field, int line) {
  if (field.empty()) parse_fail(line, "empty integer field");
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec == std::errc::result_out_of_range) {
    parse_fail(line,
               "integer out of range: '" + std::string(field) + "'");
  }
  if (ec != std::errc{}) {
    parse_fail(line, "expected integer, got '" + std::string(field) + "'");
  }
  if (ptr != field.data() + field.size()) {
    parse_fail(line, "trailing garbage after integer: '" +
                         std::string(field) + "'");
  }
  return value;
}

bool parse_bool(std::string_view field, int line) {
  const std::int64_t v = parse_int(field, line);
  if (v != 0 && v != 1) parse_fail(line, "expected 0/1 flag");
  return v == 1;
}

void expect_fields(const std::vector<std::string_view>& f, std::size_t n,
                   int line, const char* kind) {
  if (f.size() != n) {
    std::ostringstream os;
    os << kind << " record needs " << n << " fields, got " << f.size();
    parse_fail(line, os.str());
  }
}

}  // namespace

void write_trace(std::ostream& os, const UserTrace& trace) {
  trace.validate();
  os << "# netmaster-trace v1\n";
  os << "user," << trace.user << ",days," << trace.num_days << '\n';
  for (std::size_t i = 0; i < trace.app_names.size(); ++i) {
    NM_REQUIRE(trace.app_names[i].find(',') == std::string::npos,
               "app names must not contain commas");
    os << "app," << i << ',' << trace.app_names[i] << '\n';
  }
  for (const ScreenSession& s : trace.sessions) {
    os << "screen," << s.begin << ',' << s.end << '\n';
  }
  for (const AppUsage& u : trace.usages) {
    os << "usage," << u.app << ',' << u.time << ',' << u.duration << '\n';
  }
  for (const NetworkActivity& n : trace.activities) {
    os << "net," << n.app << ',' << n.start << ',' << n.duration << ','
       << n.bytes_down << ',' << n.bytes_up << ','
       << (n.user_initiated ? 1 : 0) << ',' << (n.deferrable ? 1 : 0)
       << '\n';
  }
}

UserTrace read_trace(std::istream& is) {
  UserTrace trace;
  bool saw_header = false;
  std::string line;
  int lineno = 0;

  while (std::getline(is, line)) {
    ++lineno;
    // CRLF tolerance: traces recorded on-device are routinely shipped
    // through Windows tooling; strip the carriage return rather than
    // baking it into the last field of every record.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    const auto fields = split_csv(line);
    const std::string_view kind = fields.front();

    if (kind == "user") {
      expect_fields(fields, 4, lineno, "user");
      if (fields[2] != "days") parse_fail(lineno, "expected 'days' field");
      trace.user = static_cast<UserId>(parse_int(fields[1], lineno));
      // Range-check the untrusted count before narrowing it: the
      // header alone must not size anything downstream.
      const std::int64_t days = parse_int(fields[3], lineno);
      if (days < 1 || days > kMaxTraceDays) {
        parse_fail(lineno, "days must be in [1, " +
                               std::to_string(kMaxTraceDays) + "], got " +
                               std::to_string(days));
      }
      trace.num_days = static_cast<int>(days);
      saw_header = true;
    } else if (kind == "app") {
      expect_fields(fields, 3, lineno, "app");
      const auto id = parse_int(fields[1], lineno);
      if (id != static_cast<std::int64_t>(trace.app_names.size())) {
        parse_fail(lineno, "app ids must be dense and in order");
      }
      trace.app_names.emplace_back(fields[2]);
    } else if (kind == "screen") {
      expect_fields(fields, 3, lineno, "screen");
      trace.sessions.push_back(
          {parse_int(fields[1], lineno), parse_int(fields[2], lineno)});
    } else if (kind == "usage") {
      expect_fields(fields, 4, lineno, "usage");
      trace.usages.push_back({static_cast<AppId>(parse_int(fields[1], lineno)),
                              parse_int(fields[2], lineno),
                              parse_int(fields[3], lineno)});
    } else if (kind == "net") {
      expect_fields(fields, 8, lineno, "net");
      NetworkActivity n;
      n.app = static_cast<AppId>(parse_int(fields[1], lineno));
      n.start = parse_int(fields[2], lineno);
      n.duration = parse_int(fields[3], lineno);
      n.bytes_down = parse_int(fields[4], lineno);
      n.bytes_up = parse_int(fields[5], lineno);
      n.user_initiated = parse_bool(fields[6], lineno);
      n.deferrable = parse_bool(fields[7], lineno);
      trace.activities.push_back(n);
    } else {
      parse_fail(lineno, "unknown record kind '" + std::string(kind) + "'");
    }
  }

  if (!saw_header) {
    throw TraceParseError("trace parse error: missing 'user' header record");
  }

  std::sort(trace.sessions.begin(), trace.sessions.end(),
            [](const ScreenSession& a, const ScreenSession& b) {
              return a.begin < b.begin;
            });
  std::sort(trace.usages.begin(), trace.usages.end(),
            [](const AppUsage& a, const AppUsage& b) {
              return a.time < b.time;
            });
  std::sort(trace.activities.begin(), trace.activities.end(),
            [](const NetworkActivity& a, const NetworkActivity& b) {
              return a.start < b.start;
            });
  trace.validate();
  return trace;
}

void save_trace(const std::string& path, const UserTrace& trace) {
  std::ofstream os(path);
  NM_REQUIRE(os.good(), "cannot open trace file for writing: " + path);
  write_trace(os, trace);
  NM_REQUIRE(os.good(), "write failed for trace file: " + path);
}

UserTrace load_trace(const std::string& path) {
  std::ifstream is(path);
  NM_REQUIRE(is.good(), "cannot open trace file for reading: " + path);
  return read_trace(is);
}

}  // namespace netmaster
