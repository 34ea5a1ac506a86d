#!/usr/bin/env python3
"""Benchmark of record for hotspot-bnn: build, run one workload, print.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the repository's libraries and the perfbench binary from source into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs the binary,
and passes its output through. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones; a run whose metric names differ from that list fails.
Build output goes to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_paper128", "scan_tiled", "serve_mixed")
# A run measures for at most MAX_SECONDS; with set-up and a slow host it
# stays well inside RUN_TIMEOUT_S, past which it is killed and exits 3.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no hotspot-bnn source tree at {ROOT}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 1)
    return os.path.join(out, target)


def make_work_dir():
    work = os.path.join(build_dir(), "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    return work


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        return "metric names differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the measurement self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        work = make_work_dir()
        try:
            code = subprocess.run([binary], cwd=work, check=False).returncode
        finally:
            shutil.rmtree(work, ignore_errors=True)
        sys.exit(code)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in [1, {MAX_SECONDS}]")

    binary = build("perfbench")
    work = make_work_dir()
    # The program's HOTSPOT_* switches (kernel, thread count) stay at what
    # the benchmark sets, whatever the caller's environment holds.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HOTSPOT_")}
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        sys.exit(done.returncode)
    problem = check_result(lines[-1], args.trace)
    if problem is not None:
        print("\n".join(lines[:-1]))
        fail(problem, 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
