#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench. A run prints the program's diagnostics and, as its last
stdout line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. The program prints the metrics it measured; this script checks their
names and units against BENCHMARK.json and fills the layers a workload does not
exercise with 0. The exit code is the program's: non-zero when the correctness
gate trips or a metric is missing, misnamed or not finite. Without the
program's sources the script exits 2 and prints no result.

--self-test runs every workload briefly and asserts that each named metric is
emitted with its unit, that the correctness gate trips on a deliberately
corrupted digest, that the seed changes the generated inputs, and that the
exact work counters repeat between runs.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the program's sources (src/) are missing; nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("build failed")


def program_args(workload, seed, seconds, trace, corrupt=False):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if corrupt:
        args += ["--corrupt-digest", "1"]
    return args


def check_result(line, declared, trace):
    """Parses the program's last line and checks its metrics against the
    declared ones; returns (result, problems). In a traced run a layer
    the workload does not exercise is absent and reads 0."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None, ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, ["last line is not a result object"]
    metrics = result["metrics"]
    problems = []
    for m in declared:
        if trace:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}")
        elif (not isinstance(got.get("value"), (int, float))
              or not math.isfinite(got["value"])):
            problems.append(f"metric {m['name']} is not a finite number")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    if problems:
        result["correct"] = False
    return result, problems


def run(workload, seed, seconds, trace, corrupt=False, echo=True):
    """Runs the program once; returns (exit code, stdout lines, result)."""
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {workload}")
    proc = subprocess.run(program_args(workload, seed, seconds, trace, corrupt),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result, problems = None, ["no output"]
    if lines:
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        result, problems = check_result(lines[-1], declared, trace)
    if echo:
        shown = lines[:-1] if result is not None else lines
        for line in shown:
            print(line)
        if result is not None:
            print(json.dumps(result))
        sys.stdout.flush()
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    code = proc.returncode
    if (problems or result is None) and code == 0:
        code = 1
    return code, lines, result


def field(lines, key):
    for line in lines:
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    return None


def self_test():
    spec = load_spec()
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        digests = {}
        for trace in (False, True):
            code, lines, result = run(name, 1, 1, trace, echo=False)
            ok = code == 0 and result is not None and result["correct"]
            print(f"self-test {name} trace={int(trace)}: "
                  f"{'ok' if ok else 'FAILED'}", file=sys.stderr)
            if not ok:
                failures.append(f"{name} trace={int(trace)} did not pass")
            digests[trace] = field(lines, "inputs_digest")
            if not trace:
                counters = field(lines, "counters")
        code, lines, result = run(name, 2, 1, False, corrupt=True, echo=False)
        if code == 0 or result is None or result["correct"]:
            failures.append(f"{name}: corrupted digest did not trip the gate")
        if field(lines, "inputs_digest") in (None, digests[False]):
            failures.append(f"{name}: seed 2 generated the inputs of seed 1")
        if digests[False] != digests[True]:
            failures.append(f"{name}: traced and untraced inputs differ")
        # Every seed replays the same corpus, so the exact work counters
        # must repeat from run to run.
        if field(lines, "counters") != counters:
            failures.append(f"{name}: work counters differ between runs")
        print(f"self-test {name}: gate and seed checks done", file=sys.stderr)
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print("self-test: " + ("FAILED" if failures else "passed"), file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    build()
    if opts.self_test:
        sys.exit(self_test())
    if not opts.workload:
        die("--workload is required")
    code, _, _ = run(opts.workload, opts.seed, opts.seconds, opts.trace == 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
