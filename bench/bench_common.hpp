// Shared scaffolding for the figure-regeneration benches.
//
// Every bench binary prints the paper figure's series as ASCII tables
// (and a paper-vs-measured note). Figures are regenerated
// deterministically from the seed printed in the header, and a bench
// takes no arguments: its output and its JSON counters (all but the
// scheduler's jobs.steals) are a function of that seed. Timings live
// in perfbench/, not here.
//
// Machine-readable telemetry: everything routed through banner()/
// emit()/record_scalar() is captured by a process-wide recorder and
// dumped as `bench/<binary>.json` when main() finishes — figure series
// (headers + rows), scalar results, and the obs metrics snapshot
// (counters, histograms, spans) in one object. Set
// NETMASTER_BENCH_JSON_DIR to redirect the output directory, and
// NETMASTER_METRICS_OUT to additionally write the JSON-lines metrics
// snapshot.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/table.hpp"
#include "obs/export.hpp"

namespace netmaster::bench {

inline constexpr std::uint64_t kDefaultSeed = 42;

/// Peak resident set size (VmHWM) of this process in bytes, read from
/// /proc/self/status; 0 when the proc interface is unavailable. Every
/// bench JSON carries it so footprint regressions show up in the same
/// dump as the figures.
inline std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kib = 0;
      std::istringstream fields(line.substr(6));
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

/// Captures banners, figure tables and scalar results for the
/// machine-readable bench dump.
class FigureRecorder {
 public:
  void add_banner(std::string figure, std::string claim) {
    banners_.push_back({std::move(figure), std::move(claim)});
  }

  void add_table(const eval::Table& table, std::string name) {
    if (name.empty()) {
      name = "series_" + std::to_string(series_.size() + 1);
    }
    series_.push_back({std::move(name), table.headers(), table.rows()});
  }

  void add_scalar(std::string name, double value) {
    scalars_.push_back({std::move(name), value});
  }

  /// Writes bench/<bench_name>.json (or $NETMASTER_BENCH_JSON_DIR/…).
  /// Failures are reported to stderr, never thrown: telemetry must not
  /// fail a bench.
  void write(const std::string& bench_name) const {
    namespace fs = std::filesystem;
    const char* env_dir = std::getenv("NETMASTER_BENCH_JSON_DIR");
    const fs::path dir =
        (env_dir != nullptr && *env_dir != '\0') ? fs::path(env_dir)
                                                 : fs::path("bench");
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path path = dir / (bench_name + ".json");
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::cerr << "bench: cannot write " << path.string() << "\n";
      return;
    }
    out << "{\"bench\":\"" << obs::json_escape(bench_name)
        << "\",\"seed\":" << kDefaultSeed << ",\"figures\":[";
    for (std::size_t i = 0; i < banners_.size(); ++i) {
      out << (i > 0 ? "," : "") << "{\"figure\":\""
          << obs::json_escape(banners_[i].first) << "\",\"claim\":\""
          << obs::json_escape(banners_[i].second) << "\"}";
    }
    out << "],\"series\":[";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const Series& s = series_[i];
      out << (i > 0 ? "," : "") << "{\"name\":\""
          << obs::json_escape(s.name) << "\",\"headers\":[";
      for (std::size_t c = 0; c < s.headers.size(); ++c) {
        out << (c > 0 ? "," : "") << '"' << obs::json_escape(s.headers[c])
            << '"';
      }
      out << "],\"rows\":[";
      for (std::size_t r = 0; r < s.rows.size(); ++r) {
        out << (r > 0 ? "," : "") << '[';
        for (std::size_t c = 0; c < s.rows[r].size(); ++c) {
          out << (c > 0 ? "," : "") << '"'
              << obs::json_escape(s.rows[r][c]) << '"';
        }
        out << ']';
      }
      out << "]}";
    }
    out << "],\"scalars\":{\"peak_rss_bytes\":" << peak_rss_bytes();
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      // json_number keeps a NaN/inf scalar (e.g. a speedup with a
      // zero-time denominator) from corrupting the whole dump.
      out << ",\"" << obs::json_escape(scalars_[i].first)
          << "\":" << obs::json_number(scalars_[i].second);
    }
    out << "},\"metrics\":";
    obs::write_json_object(obs::Registry::global(), out);
    out << "}\n";
  }

 private:
  struct Series {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  std::vector<std::pair<std::string, std::string>> banners_;
  std::vector<Series> series_;
  std::vector<std::pair<std::string, double>> scalars_;
};

inline FigureRecorder& recorder() {
  static FigureRecorder r;
  return r;
}

/// Prints the figure banner (and records it for the JSON dump).
inline void banner(const std::string& figure, const std::string& claim) {
  std::cout << "==================================================\n"
            << figure << "\n"
            << "paper: " << claim << "\n"
            << "seed: " << kDefaultSeed << "\n"
            << "==================================================\n";
  recorder().add_banner(figure, claim);
}

/// Prints a figure table to stdout and records it as a named series.
inline void emit(const eval::Table& table, const std::string& name = "") {
  table.print(std::cout);
  recorder().add_table(table, name);
}

/// Records one scalar result (e.g. a speedup) for the JSON dump.
inline void record_scalar(const std::string& name, double value) {
  recorder().add_scalar(name, value);
}

/// The body of every bench's main(): rejects any argument (usage on
/// stderr, exit 1), prints the figure, then dumps the figure JSON and
/// honors NETMASTER_METRICS_OUT.
inline int run_main(int argc, char** argv, void (*print_figure)()) {
  const std::string name = std::filesystem::path(argv[0]).filename().string();
  if (argc > 1) {
    std::cerr << "usage: " << name << "\n"
              << "a figure bench takes no arguments; it prints the figure "
                 "for seed "
              << kDefaultSeed << "\n";
    return 1;
  }
  print_figure();
  recorder().write(name);
  obs::maybe_export_env();
  return 0;
}

}  // namespace netmaster::bench

/// Standard main: the figure is defined per bench as `print_figure()`.
#define NETMASTER_BENCH_MAIN()                                     \
  int main(int argc, char** argv) {                                \
    return ::netmaster::bench::run_main(argc, argv, print_figure); \
  }
