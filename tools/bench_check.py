#!/usr/bin/env python3
"""Compare a fresh BENCH_<name>.json against the committed baseline snapshot.

Each benchmark binary writes BENCH_<name>.json into its working directory;
committed reference snapshots live in bench/baselines/. This script compares
named metrics between the two and exits non-zero when a metric regressed by
more than the allowed tolerance (default 15%).

Metric specs say which direction is "worse":

    --metric fig6a_memory:ablation_dedup_factor:higher
    --metric fig6b_cpu:lookup_fibview_ns:lower
    --metric fig6b_cpu:obs_updates_in:exact

"higher" means larger values are better (a drop beyond tolerance fails);
"lower" means smaller values are better (a rise beyond tolerance fails);
"exact" is for deterministic metrics (counts, not timings): any difference
from the baseline fails regardless of tolerance;
"max" treats the baseline as a hard ceiling: the fresh value may sit
anywhere at or below it, but exceeding it fails regardless of tolerance —
for peak-RSS and p99-convergence budgets, where the committed number is a
promise ("never more than this"), not a measurement to drift around.

Usage:
    tools/bench_check.py --fresh-dir build/bench \\
        --metric fig6a_memory:with_dataplane_bytes_per_route:lower \\
        --metric fig6a_memory:ablation_dedup_factor:higher
"""

import argparse
import json
import os
import sys


def load_report(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        sys.exit(f"bench_check: malformed JSON in {path}: {exc}")


def numeric_metrics(report):
    """Names of the gateable (numeric, non-note) metrics in a report."""
    return sorted(
        key
        for key, value in report.items()
        if key != "bench" and isinstance(value, (int, float))
    )


def describe_available(kind, report):
    names = numeric_metrics(report)
    if not names:
        return f"{kind} has no numeric metrics"
    return f"{kind} metrics present: {', '.join(names)}"


def parse_spec(spec):
    parts = spec.split(":")
    if len(parts) != 3 or parts[2] not in ("higher", "lower", "exact", "max"):
        sys.exit(
            f"bench_check: bad --metric spec '{spec}' "
            "(want <bench>:<metric>:higher|lower|exact|max)"
        )
    return parts[0], parts[1], parts[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(__file__), "..", "bench", "baselines"),
        help="directory holding committed BENCH_<name>.json snapshots",
    )
    parser.add_argument(
        "--fresh-dir",
        default=".",
        help="directory holding freshly produced BENCH_<name>.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative regression (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="BENCH:METRIC:DIRECTION",
        help="metric to check; repeatable (direction: higher|lower is better)",
    )
    parser.add_argument(
        "--require-all-baselines",
        action="store_true",
        help="fail when any committed baseline BENCH_<name>.json has no "
        "freshly produced counterpart in --fresh-dir (a baselined bench "
        "that silently emits no JSON is a gate that silently stopped "
        "gating)",
    )
    args = parser.parse_args()

    if not args.metric and not args.require_all_baselines:
        sys.exit("bench_check: no --metric specs given")

    failures = []
    checked = 0

    if args.require_all_baselines:
        if not os.path.isdir(args.baselines):
            sys.exit(f"bench_check: baseline dir {args.baselines} not found")
        for name in sorted(os.listdir(args.baselines)):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            fresh_path = os.path.join(args.fresh_dir, name)
            if load_report(fresh_path) is None:
                failures.append(
                    f"{name[len('BENCH_'):-len('.json')]}: baselined bench "
                    f"emitted no fresh {name} in {args.fresh_dir}"
                )
            else:
                checked += 1
                print(f"  ok   {name} present in {args.fresh_dir}")

    for spec in args.metric:
        bench, metric, direction = parse_spec(spec)
        fname = f"BENCH_{bench}.json"
        baseline = load_report(os.path.join(args.baselines, fname))
        fresh = load_report(os.path.join(args.fresh_dir, fname))
        if baseline is None:
            have = sorted(
                name
                for name in os.listdir(args.baselines)
                if name.startswith("BENCH_") and name.endswith(".json")
            ) if os.path.isdir(args.baselines) else []
            failures.append(
                f"{bench}: no baseline {fname} in {args.baselines} "
                f"(snapshots present: {', '.join(have) if have else 'none'}; "
                f"run the bench and commit its BENCH_{bench}.json there)"
            )
            continue
        if fresh is None:
            failures.append(f"{bench}: fresh {fname} not found in {args.fresh_dir}")
            continue
        if metric not in baseline:
            failures.append(
                f"{bench}: metric '{metric}' not in baseline; "
                + describe_available("baseline", baseline)
            )
            continue
        if metric not in fresh:
            failures.append(
                f"{bench}: metric '{metric}' not in fresh run; "
                + describe_available("fresh", fresh)
            )
            continue

        try:
            base_val = float(baseline[metric])
            fresh_val = float(fresh[metric])
        except (TypeError, ValueError):
            failures.append(
                f"{bench}: metric '{metric}' is not numeric "
                f"(baseline={baseline[metric]!r}, fresh={fresh[metric]!r}); "
                + describe_available("baseline", baseline)
            )
            continue
        checked += 1
        if direction == "exact":
            # Deterministic metrics (counts, not timings): any drift fails.
            status = "ok" if fresh_val == base_val else "FAIL"
            print(
                f"  {status:4s} {bench}:{metric} baseline={base_val:g} "
                f"fresh={fresh_val:g} (must match exactly)"
            )
            if status == "FAIL":
                failures.append(
                    f"{bench}:{metric} deterministic metric drifted: "
                    f"baseline={base_val:g} fresh={fresh_val:g}"
                )
            continue
        if direction == "max":
            # Ceiling gate: the committed baseline is a budget, not a
            # measurement — exceeding it fails with no tolerance grace.
            status = "ok" if fresh_val <= base_val else "FAIL"
            print(
                f"  {status:4s} {bench}:{metric} ceiling={base_val:g} "
                f"fresh={fresh_val:g} (must not exceed)"
            )
            if status == "FAIL":
                failures.append(
                    f"{bench}:{metric} exceeded ceiling: "
                    f"fresh={fresh_val:g} > {base_val:g}"
                )
            continue
        if base_val == 0:
            print(f"  SKIP {bench}:{metric} (baseline is zero)")
            continue

        # Relative change, signed so that positive = regression.
        if direction == "lower":
            change = (fresh_val - base_val) / abs(base_val)
        else:
            change = (base_val - fresh_val) / abs(base_val)

        status = "FAIL" if change > args.tolerance else "ok"
        print(
            f"  {status:4s} {bench}:{metric} baseline={base_val:g} "
            f"fresh={fresh_val:g} ({'regressed' if change > 0 else 'improved'} "
            f"{abs(change) * 100:.1f}%, {direction} is better)"
        )
        if change > args.tolerance:
            failures.append(
                f"{bench}:{metric} regressed {change * 100:.1f}% "
                f"(> {args.tolerance * 100:.0f}% allowed)"
            )

    if failures:
        print("\nbench_check: REGRESSIONS DETECTED", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_check: {checked} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
