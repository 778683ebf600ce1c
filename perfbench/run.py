#!/usr/bin/env python3
"""Builds the program from the checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload sync-fedyogi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build, under a perfbench-<hash of the checkout path>
subdirectory; build output goes to stderr. The last line of stdout is the
JSON result printed by the perfbench runner. --test builds and runs the benchmark's own tests and
checks that BENCHMARK.json declares exactly the metrics the runner
reports. Exits non-zero, printing no result, when the build or the run
fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sync-fedyogi", "async-faults", "serve-closed")
BUILD_JOBS = "4"


def build_dir():
    # One build directory per checkout: a CMake cache keeps the source
    # paths it was configured with, so two checkouts sharing a target
    # directory must not share a cache, or one would build the other's code.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(HERE.encode()).hexdigest()[:16]
    return os.path.join(os.path.abspath(base), "perfbench-" + key)


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS, "--target",
                    "perfbench", "flips_serve", "perfbench_tests"],
                   stdout=sys.stderr, check=True)


def self_test(out):
    subprocess.run([os.path.join(out, "perfbench_tests")], check=True)
    listed = subprocess.run([os.path.join(out, "perfbench"), "--list-metrics"],
                            check=True, capture_output=True, text=True)
    reported = {}
    for line in listed.stdout.splitlines():
        name, unit, kind = line.split()
        reported[name] = (unit, kind)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared_json = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in declared_json[kind]:
            declared[metric["name"]] = (metric["unit"], kind)
    if declared != reported:
        print("BENCHMARK.json and the runner disagree on metrics:",
              sorted(set(declared.items()) ^ set(reported.items())),
              file=sys.stderr)
        return 1
    names = {w["name"] for w in declared_json["workloads"]}
    if names != set(WORKLOADS):
        print("BENCHMARK.json workloads differ from", WORKLOADS,
              file=sys.stderr)
        return 1
    print("BENCHMARK.json matches the runner's", len(reported), "metrics")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and None in (args.workload, args.seed, args.seconds,
                                  args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed:", error, file=sys.stderr)
        return 2
    if args.test:
        return self_test(out)

    # The runner runs inside the build directory: the serving socket and
    # the span trace are written there, under a short relative path.
    trace_out = "trace-%s.jsonl" % args.workload
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--serve-bin", os.path.join(out, "flips_bench", "flips_serve"),
               "--socket", "serve-%d.sock" % os.getpid(),
               "--trace-out", trace_out]
    return subprocess.run(command, cwd=out).returncode


if __name__ == "__main__":
    sys.exit(main())
