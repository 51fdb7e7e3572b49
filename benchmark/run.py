#!/usr/bin/env python3
"""Build the benchmark if needed, run one workload, print one JSON result line.

    python3 benchmark/run.py --workload bayes-sync --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) with CMake, from benchmark/CMakeLists.txt.  The
workload runs in nscc_benchmark for --seconds of timed runs; with --trace 1
it also does the traced run and the layer probes.  The program's own tables
go to stderr.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1).  The exit code is 0 only when every run passed its checks.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_SECONDS = 850
RUN_SECONDS = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and bring the build up to date; output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4"]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_SECONDS)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (step[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    stem = os.path.join(build_dir, "%s-%d-%d" % (args.workload, args.seed,
                                                 args.trace))
    results = stem + ".json"
    if os.path.exists(results):
        os.remove(results)
    command = [os.path.join(build_dir, "nscc_benchmark"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--layers=%s" % ("true" if args.trace else "false"),
               "--json-out=" + results,
               "--trace-out=" + stem + ".trace.json"]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_SECONDS)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("nscc_benchmark did not finish: %s" % e)
    try:
        with open(results) as f:
            stats = json.load(f)["results"][0]["stats"]
    except (OSError, ValueError, KeyError, IndexError) as e:
        fail("no results from nscc_benchmark (exit %d): %s"
             % (done.returncode, e))

    missing = [m["name"] for m in wanted if m["name"] not in stats]
    if missing:
        fail("nscc_benchmark did not report %s" % ", ".join(missing))
    attempted = int(stats["attempted"])
    failed = int(stats["failed"])
    correct = done.returncode == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
