#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "obs/span.hpp"

namespace netmaster::obs {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

namespace {

void write_histogram_fields(const Histogram& h, std::ostream& os) {
  os << "\"count\":" << h.count() << ",\"sum\":" << json_number(h.sum())
     << ",\"min\":" << json_number(h.min())
     << ",\"max\":" << json_number(h.max())
     << ",\"rejected\":" << h.rejected()
     << ",\"p50\":" << json_number(h.quantile(0.5))
     << ",\"p90\":" << json_number(h.quantile(0.9))
     << ",\"p99\":" << json_number(h.quantile(0.99)) << ",\"buckets\":[";
  const std::vector<double>& bounds = h.bounds();
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b <= bounds.size(); ++b) {
    if (b > 0) os << ',';
    os << "{\"le\":";
    if (b < bounds.size()) {
      os << json_number(bounds[b]);
    } else {
      os << "\"+inf\"";
    }
    cumulative += h.bucket_count(b);
    os << ",\"count\":" << cumulative << '}';
  }
  os << ']';
}

void write_span_fields(const Registry::SpanRow& row, std::ostream& os) {
  os << "\"name\":\"" << json_escape(row.name) << "\",\"parent\":\""
     << json_escape(row.parent) << "\",\"count\":" << row.stats.count
     << ",\"wall_ms\":" << json_number(row.stats.wall_ms)
     << ",\"cpu_ms\":" << json_number(row.stats.cpu_ms)
     << ",\"max_wall_ms\":" << json_number(row.stats.max_wall_ms);
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_jsonl(Registry& registry, std::ostream& os) {
  flush_thread_spans();
  for (const auto& row : registry.counter_rows()) {
    os << "{\"type\":\"counter\",\"name\":\"" << json_escape(row.name)
       << "\",\"value\":" << row.value << "}\n";
  }
  for (const auto& row : registry.gauge_rows()) {
    os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(row.name)
       << "\",\"value\":" << json_number(row.value) << "}\n";
  }
  for (const auto& row : registry.histogram_rows()) {
    os << "{\"type\":\"histogram\",\"name\":\"" << json_escape(row.name)
       << "\",";
    write_histogram_fields(*row.histogram, os);
    os << "}\n";
  }
  for (const auto& row : registry.span_rows()) {
    os << "{\"type\":\"span\",";
    write_span_fields(row, os);
    os << "}\n";
  }
}

void write_json_object(Registry& registry, std::ostream& os) {
  flush_thread_spans();
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& row : registry.counter_rows()) {
    os << (first ? "" : ",") << "\"" << json_escape(row.name)
       << "\":" << row.value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& row : registry.gauge_rows()) {
    os << (first ? "" : ",") << "\"" << json_escape(row.name)
       << "\":" << json_number(row.value);
    first = false;
  }
  os << "},\"histograms\":[";
  first = true;
  for (const auto& row : registry.histogram_rows()) {
    os << (first ? "" : ",") << "{\"name\":\"" << json_escape(row.name)
       << "\",";
    write_histogram_fields(*row.histogram, os);
    os << '}';
    first = false;
  }
  os << "],\"spans\":[";
  first = true;
  for (const auto& row : registry.span_rows()) {
    os << (first ? "" : ",") << '{';
    write_span_fields(row, os);
    os << '}';
    first = false;
  }
  os << "]}";
}

bool maybe_export_env(Registry& registry) {
  const char* path = std::getenv("NETMASTER_METRICS_OUT");
  if (path == nullptr || *path == '\0') return false;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    static bool warned = false;
    if (!warned) {
      std::cerr << "obs: cannot open NETMASTER_METRICS_OUT file '" << path
                << "'\n";
      warned = true;
    }
    return false;
  }
  write_jsonl(registry, out);
  return true;
}

}  // namespace netmaster::obs
