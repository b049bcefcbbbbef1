// Metric exporters: machine-readable JSON.
//
// Two JSON shapes are provided: `write_jsonl` emits one object per
// line (the NETMASTER_METRICS_OUT snapshot format, greppable and
// stream-appendable), `write_json_object` emits a single nested object
// (embedded in the per-bench figure JSON). Both flush the calling
// thread's span aggregates first.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace netmaster::obs {

/// Escapes a string for embedding inside a JSON string literal
/// (backslash, quote, and control characters).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON value: finite values round-trip at 15
/// significant digits; NaN/inf (legal in C++ metrics, illegal in JSON)
/// become null. Every double the exporters emit goes through this —
/// use it for any hand-rolled JSON too (see bench/bench_common.hpp).
std::string json_number(double v);

/// One metric per line:
///   {"type":"counter","name":...,"value":...}
///   {"type":"gauge","name":...,"value":...}
///   {"type":"histogram","name":...,"count":...,"sum":...,"min":...,
///    "max":...,"rejected":...,"p50":...,"p90":...,"p99":...,
///    "buckets":[{"le":0.5,"count":3},...,{"le":"+inf","count":0}]}
///   {"type":"span","name":...,"parent":...,"count":...,"wall_ms":...,
///    "cpu_ms":...,"max_wall_ms":...}
void write_jsonl(Registry& registry, std::ostream& os);

/// The same snapshot as one object:
///   {"counters":{...},"gauges":{...},"histograms":[...],"spans":[...]}
void write_json_object(Registry& registry, std::ostream& os);

/// When NETMASTER_METRICS_OUT names a file, writes the JSON-lines
/// snapshot there (truncating any previous snapshot) and returns true.
/// No-op returning false when the variable is unset or empty; a file
/// that cannot be opened is reported once to stderr, never thrown.
bool maybe_export_env(Registry& registry = Registry::global());

}  // namespace netmaster::obs
