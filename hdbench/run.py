#!/usr/bin/env python3
"""Build and run the decomposition-server benchmark (see hdbench/README.md).

One run of one workload, the form BENCHMARK.json names:

    python3 hdbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0

Every workload in turn, printing each metric with its unit:

    python3 hdbench/run.py --all --seed 1 --seconds 10 [--trace 1] [--out FILE]

The benchmark's own unit tests:

    python3 hdbench/run.py --selftest

The program is built from the checkout's sources into .bench_build/. The last
line of standard output is the run's result object; it is printed only when
the run checked its outputs and reported exactly the metrics BENCHMARK.json
names for the mode. Anything else exits non-zero without a result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "hdbench"
RUN_TIMEOUT_SECONDS = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"hdbench: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(targets):
    """Configures and builds `targets` from the checkout; exits on failure."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            fail(f"{needed} is missing from {ROOT}: the benchmark builds the "
                 "program from the checkout's sources")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(ROOT / "hdbench"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result object.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace):
    """Runs one workload; prints its report and returns the result object."""
    binary = BUILD_DIR / "hdbench"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_SECONDS} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result object")
    names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    if set(result) != RESULT_KEYS or sorted(result["metrics"]) != sorted(names):
        fail(f"{workload} reported {sorted(result.get('metrics', {}))}, "
             f"expected {sorted(names)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload}: outputs were not checked")
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results here")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        build(["hdbench_test"])
        test = BUILD_DIR / "hdbench_test"
        if not test.exists():
            fail("hdbench_test was not built (GTest not found)")
        sys.exit(subprocess.run([str(test)], cwd=ROOT).returncode)

    benchmark = spec()
    seconds = args.seconds or benchmark["run_seconds"]
    if args.all:
        chosen = [w["name"] for w in benchmark["workloads"]]
    elif args.workload:
        # Any workload the binary knows; cold_solves is one outside the
        # benchmark's gated set (README.md).
        chosen = [args.workload]
    else:
        parser.error("name a --workload, or use --all")

    build(["hdbench"])
    results = {}
    for workload in chosen:
        results[workload] = run_one(workload, args.seed, seconds, args.trace)
    if args.all:
        for workload, result in results.items():
            print(f"== {workload}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:32s} {metric['value']:16.6f} {metric['unit']}")
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"machine": platform.platform(),
                           "cpus": os.cpu_count(), "seed": args.seed,
                           "seconds": seconds, "trace": args.trace,
                           "workloads": results}, f, indent=1)
    else:
        print(json.dumps(results[chosen[0]]))


if __name__ == "__main__":
    main()
