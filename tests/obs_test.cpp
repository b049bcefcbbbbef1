// Tests for the observability subsystem (src/obs/): registry and
// instrument correctness, concurrent updates from job-system
// workers, span aggregation and parent attribution, exporter formats,
// and the end-to-end fleet snapshot via NETMASTER_METRICS_OUT.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/fleet.hpp"
#include "jobs/job_system.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "policy/netmaster.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::obs {
namespace {

// ---- Instruments. ----------------------------------------------------

TEST(ObsCounter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, CumulativeBucketsAndSummary) {
  Histogram h({1.0, 2.0, 4.0});
  for (double x : {0.5, 1.0, 1.5, 3.0, 100.0}) h.add(x);
  // Bucket i counts samples in (bounds[i-1], bounds[i]].
  EXPECT_EQ(h.bucket_count(0), 2u);  // <= 1
  EXPECT_EQ(h.bucket_count(1), 1u);  // (1, 2]
  EXPECT_EQ(h.bucket_count(2), 1u);  // (2, 4]
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 21.2);
}

TEST(ObsHistogram, QuantileClampedToObservedRange) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.add(3.0);
  EXPECT_GE(h.quantile(0.5), 2.0);
  EXPECT_LE(h.quantile(0.5), 3.0);  // clamped to observed max
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
  EXPECT_THROW(h.quantile(1.5), Error);
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(ObsHistogram, NanRejectedAndReset) {
  Histogram h({1.0});
  h.add(0.5);
  h.add(std::nan(""));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.rejected(), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.rejected(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(ObsHistogram, BadBoundsThrow) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

// ---- Registry. -------------------------------------------------------

TEST(ObsRegistry, LookupRegistersOnceAndSnapshots) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);  // same instrument, stable reference
  a.add(7);
  reg.gauge("g").set(1.25);
  reg.histogram("h", {1.0, 2.0}).add(0.5);

  const auto counters = reg.counter_rows();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "x");
  EXPECT_EQ(counters[0].value, 7u);
  const auto gauges = reg.gauge_rows();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].value, 1.25);
  const auto hists = reg.histogram_rows();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].histogram->count(), 1u);

  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(reg.histogram("h", {}).count(), 0u);  // bounds kept
}

TEST(ObsRegistry, ConcurrentUpdatesFromPoolTasksAreDeterministic) {
  Registry reg;
  Counter& hits = reg.counter("hits");
  Histogram& lat = reg.histogram("lat", {0.25, 0.5, 1.0});
  constexpr std::size_t kTasks = 1000;
  jobs::TaskGraph graph;
  for (std::size_t i = 0; i < kTasks; ++i) {
    graph.add([&hits, &lat, i] {
      hits.add(1);
      lat.add(static_cast<double>(i % 4) * 0.25);  // 0, .25, .5, .75
    });
  }
  jobs::run_graph(graph);
  EXPECT_EQ(hits.value(), kTasks);
  EXPECT_EQ(lat.count(), kTasks);
  EXPECT_EQ(lat.bucket_count(0), 500u);  // <= 0.25 (i.e. 0 and .25)
  EXPECT_EQ(lat.bucket_count(1), 250u);  // (0.25, 0.5]
  EXPECT_EQ(lat.bucket_count(2), 250u);  // (0.5, 1.0]
  EXPECT_DOUBLE_EQ(lat.min(), 0.0);
  EXPECT_DOUBLE_EQ(lat.max(), 0.75);
}

// ---- Spans. ---------------------------------------------------------

TEST(ObsSpan, ParentAttributionAndAggregation) {
  Registry reg;
  for (int i = 0; i < 3; ++i) {
    SpanScope outer(reg, "outer");
    SpanScope inner(reg, "inner");
  }
  flush_thread_spans();
  const auto rows = reg.span_rows();
  ASSERT_EQ(rows.size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const auto& row : rows) {
    if (row.name == "outer") {
      saw_outer = true;
      EXPECT_EQ(row.parent, "");
      EXPECT_EQ(row.stats.count, 3u);
      EXPECT_GE(row.stats.wall_ms, 0.0);
      EXPECT_GE(row.stats.max_wall_ms, 0.0);
    }
    if (row.name == "inner") {
      saw_inner = true;
      EXPECT_EQ(row.parent, "outer");
      EXPECT_EQ(row.stats.count, 3u);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(ObsSpan, WorkerSpansMergeAfterJoin) {
  Registry reg;
  jobs::TaskGraph graph;
  for (int i = 0; i < 64; ++i) {
    graph.add([&reg] { SpanScope s(reg, "task"); });
  }
  jobs::run_graph(graph);
  flush_thread_spans();  // main thread may have run tasks inline
  std::uint64_t total = 0;
  for (const auto& row : reg.span_rows()) {
    ASSERT_EQ(row.name, "task");
    total += row.stats.count;
  }
  EXPECT_EQ(total, 64u);
}

// ---- Exporters. ------------------------------------------------------

TEST(ObsExport, JsonlLinesAreWellFormed) {
  Registry reg;
  reg.counter("c\"quoted").add(3);
  reg.gauge("g").set(0.5);
  reg.histogram("h", {1.0}).add(2.0);
  {
    SpanScope s(reg, "work");
  }
  flush_thread_spans();
  std::ostringstream os;
  write_jsonl(reg, os);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\""), std::string::npos);
  }
  EXPECT_EQ(lines, 4);
  EXPECT_NE(os.str().find("c\\\"quoted"), std::string::npos);
  EXPECT_NE(os.str().find("\"le\":\"+inf\""), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"span\""), std::string::npos);
}

TEST(ObsExport, JsonObjectRenders) {
  Registry reg;
  reg.counter("c").add(1);
  std::ostringstream js;
  write_json_object(reg, js);
  EXPECT_EQ(js.str().front(), '{');
  EXPECT_NE(js.str().find("\"counters\":{\"c\":1}"), std::string::npos);
}

// ---- JSON validity under hostile names and values. -------------------

namespace {

// Minimal recursive-descent JSON checker: accepts exactly the RFC 8259
// grammar the exporters are supposed to emit (no NaN/Infinity tokens,
// no raw control characters, balanced structure). Returns true when
// `text` is one complete JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') return ++pos_, true;
      if (c < 0x20) return false;  // raw control char: invalid
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) ==
                   std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start &&
           std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }

  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(const std::string& text) {
  return JsonChecker(text).valid();
}

}  // namespace

TEST(ObsExport, JsonNumberHandlesNonFiniteValues) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_TRUE(is_valid_json(json_number(1e300)));
  EXPECT_TRUE(is_valid_json(json_number(-0.25)));
}

TEST(ObsExport, HostileNamesAndValuesStayValidJson) {
  Registry reg;
  // Names with every character class json_escape must handle.
  reg.counter("quote\"back\\slash").add(1);
  reg.gauge("ctrl\x01\ttab\nnewline").set(
      std::numeric_limits<double>::infinity());
  reg.gauge("nan gauge").set(std::nan(""));
  reg.histogram("h\"ist", {1.0}).add(0.5);
  {
    SpanScope s(reg, "span\\name\"x");
  }
  flush_thread_spans();

  std::ostringstream object;
  write_json_object(reg, object);
  EXPECT_TRUE(is_valid_json(object.str())) << object.str();
  // Non-finite gauges must surface as null, never as bare inf/nan
  // tokens (the "+inf" bucket label is a quoted string, not a token).
  EXPECT_NE(object.str().find(":null"), std::string::npos);
  EXPECT_EQ(object.str().find(":inf"), std::string::npos);
  EXPECT_EQ(object.str().find(":-inf"), std::string::npos);
  EXPECT_EQ(object.str().find(":nan"), std::string::npos);

  std::ostringstream jsonl;
  write_jsonl(reg, jsonl);
  std::istringstream is(jsonl.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(is_valid_json(line)) << line;
  }
  EXPECT_EQ(lines, 5);
}

TEST(ObsExport, EnvExportDisabledWhenUnset) {
  ::unsetenv("NETMASTER_METRICS_OUT");
  EXPECT_FALSE(maybe_export_env());
}

// ---- End-to-end: fleet run snapshot. ---------------------------------

TEST(ObsIntegration, FleetRunWritesParseableSnapshot) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "netmaster_obs_test_metrics.jsonl";
  ::setenv("NETMASTER_METRICS_OUT", path.string().c_str(), 1);

  // Trip the policy's degradation path once so the snapshot carries a
  // non-zero fallback counter: one training day is below
  // RobustnessConfig::min_training_days.
  const auto profile = synth::make_user(synth::Archetype::kLightUser, 9);
  const UserTrace short_training = synth::generate_trace(profile, 1, 7);
  const UserTrace eval_trace = synth::generate_trace(profile, 2, 8);
  eval::ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 3;
  const policy::NetMasterPolicy degraded(short_training, cfg.netmaster);
  ASSERT_TRUE(degraded.degraded());
  degraded.run(eval_trace);

  // A cap below any single user makes the session spill, so the
  // snapshot carries the store's counters too.
  eval::ExperimentConfig capped = cfg;
  capped.store.cache_cap_bytes = 4096;
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  const eval::FleetReport report = eval::run_fleet(
      eval::EvalSession({synth::make_user(synth::Archetype::kOfficeWorker, 1),
                         synth::make_user(synth::Archetype::kNightOwl, 2)},
                        capped),
      suite);
  ::unsetenv("NETMASTER_METRICS_OUT");
  ASSERT_EQ(report.cells.size(), 2 * suite.size());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "run_fleet did not write " << path;
  std::string content, line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    content += line;
    content += '\n';
  }
  EXPECT_GT(lines, 5);
  // Per-stage span timings from the fleet pipeline.
  for (const char* span : {"\"name\":\"eval.run_fleet\"",
                           "\"name\":\"fleet.cell\"", "\"name\":\"fleet.mine\"",
                           "\"name\":\"fleet.schedule\"",
                           "\"name\":\"fleet.account\"",
                           "\"name\":\"engine.index_build\""}) {
    EXPECT_NE(content.find(span), std::string::npos) << span;
  }
  // Policy decision counters, including the tripped fallback.
  EXPECT_NE(content.find("policy.netmaster.fallback_taken"),
            std::string::npos);
  EXPECT_NE(content.find("policy.netmaster.models_mined"),
            std::string::npos);
  // The spill store's eviction counter and rehydration histogram.
  for (const char* metric : {"\"name\":\"store.evictions\"",
                             "\"name\":\"store.rehydrate_ns\""}) {
    EXPECT_NE(content.find(metric), std::string::npos) << metric;
  }
  const auto pos = content.find("policy.netmaster.fallback_taken");
  const auto value_pos = content.find("\"value\":", pos);
  ASSERT_NE(value_pos, std::string::npos);
  EXPECT_NE(content[value_pos + 8], '0');  // counter is non-zero

  fs::remove(path);
}

}  // namespace
}  // namespace netmaster::obs
