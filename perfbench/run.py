#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload dag_cold|tree_batch|serve_mix \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the adtp library plus the perfbench binary) with CMake
in $CARGO_TARGET_DIR, or .bench_build when unset, runs the workload, and
prints the binary's human-readable lines followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
metrics are the end-to-end set of BENCHMARK.json for --trace 0 and its
per-layer set for --trace 1. Exits non-zero when the build fails, the
workload fails, or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" %
             (args.workload, ", ".join(sorted(names))))

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(ROOT, build_dir), ROOT)
    binary = build(os.path.join(ROOT, build_dir))

    # A relative work directory keeps the daemon's Unix socket path short.
    workdir = os.path.join(build_dir, "work")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--digests", os.path.join(HERE, "digests.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)

    measured = {}
    result = None
    for line in done.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 4:
            measured[fields[1]] = {"value": float(fields[2]),
                                   "unit": fields[3]}
        elif fields[:1] == ["result"]:
            result = {"attempted": int(fields[2]), "failed": int(fields[4]),
                      "correct": fields[6] == "1"}
        print(line)
    if done.returncode < 0:
        fail("workload killed by signal %d" % -done.returncode)
    if done.returncode not in (0, 1) or result is None:
        fail("workload exited with code %d" % done.returncode)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"],
                             "unit": metric["unit"]}
        elif args.trace:
            # A layer this workload does not exercise.
            metrics[name] = {"value": 0.0, "unit": metric["unit"]}
        else:
            fail("end-to-end metric %s was not measured" % name)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
