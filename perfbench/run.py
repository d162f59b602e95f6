#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is compiled from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. A traced run also writes its span dump to
<build dir>/spans/<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark targets; returns True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def self_test(out):
    """Runs the helper self-tests and checks the emitted metric names and
    units against BENCHMARK.json."""
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode != 0:
        return 1
    listing = subprocess.run([os.path.join(out, "perfbench"), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
    emitted = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in listing.splitlines():
        kind, rest = line.split(" ", 1)
        emitted[kind].append(tuple(rest.split(" ")))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        if want != emitted[kind]:
            failures.append(f"{kind}: BENCHMARK.json lists {want}, the benchmark emits {emitted[kind]}")
    want = [w["name"] for w in spec["workloads"]]
    if want != [w[0] for w in emitted["workload"]]:
        failures.append(f"workloads: BENCHMARK.json lists {want}, the benchmark runs {emitted['workload']}")
    for f in failures:
        print("FAIL " + f)
    if failures:
        return 1
    print("metric names, units and workloads match BENCHMARK.json")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(out)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
