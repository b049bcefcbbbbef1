// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <fleet-standard|fleet-replay-spill|daemon-stream>
//             --seed <n> --seconds <s> --trace <0|1> [--corrupt-digest 1]
//
// Prints diagnostics, then as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"} holding every metric the
// workload measured (a non-finite value prints as null). The untraced
// run (--trace 0) measures the end-to-end metrics, the traced run the
// per-layer ones; both run the workload's correctness gate and exit 1
// when it trips. --corrupt-digest 1 flips one bit of the digest the
// gate expects (the benchmark's self-test proves the gate trips).
// perfbench/run.py builds this program, checks the printed metrics
// against BENCHMARK.json and is the command BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt-digest 1]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--corrupt-digest") {
      args.corrupt_digest = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + flag);
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

Result dispatch(const Args& args) {
  if (args.workload == "fleet-standard") {
    return perfbench::run_fleet_standard(args);
  }
  if (args.workload == "fleet-replay-spill") {
    return perfbench::run_fleet_replay_spill(args);
  }
  if (args.workload == "daemon-stream") {
    return perfbench::run_daemon_stream(args);
  }
  usage("unknown workload " + args.workload);
}

void print_result(const Result& r) {
  std::printf("inputs_digest %s\n", r.inputs_digest.c_str());
  std::printf("counters {");
  const char* sep = "";
  for (const auto& [name, value] : r.counters) {
    std::printf("%s\"%s\": %llu", sep, name.c_str(),
                static_cast<unsigned long long>(value));
    sep = ", ";
  }
  std::printf("}\n");
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  sep = "";
  for (const auto& [name, metric] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": ", sep, name.c_str());
    if (std::isfinite(metric.value)) {
      std::printf("%.17g", metric.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result r;
  try {
    r = dispatch(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (r.attempted == 0) r.fail("no operation attempted");
  print_result(r);
  return r.correct ? 0 : 1;
}
