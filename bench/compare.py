#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/run.py --repeat 3 --out bench/out/A.json     # parent commit
    python3 bench/run.py --repeat 3 --out bench/out/B.json     # the change
    python3 bench/compare.py bench/out/A.json bench/out/B.json

One row per workload, one verdict per end-to-end metric:

    ok          B's median is no worse than A's by more than the bound
    regressed   B's median is worse than A's by more than the bound
    unresolved  the spread between repeats of one side is wider than the
                bound, so "no worse" cannot be told from these runs
                (unless every run of B reads better than every run of A)

Exits 1 if anything regressed on a gated workload.  Workloads that are not
in BENCHMARK.json (``pool_zipf``) are compared the same way and marked
``not gated``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> Dict[str, List[dict]]:
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    for run in runs:
        if not run["traced"]:
            by_workload[run["workload"]].append(run)
    return by_workload


def spread(values: Sequence[float]) -> float:
    """Quartile distance (range below four values) as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float):
    """``(status, share of A's median by which B's is worse; negative = better)``."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base)
    if worse_by > bound:
        return "regressed", worse_by
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "ok", worse_by
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    return "ok", worse_by


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    side_a, side_b = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    for workload in sorted(set(side_a) | set(side_b)):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            print(f"{workload:10s} missing on one side")
            continue
        gated = runs_b[0]["gated"]
        cells = []
        for metric in contract["end_to_end"]:
            name = metric["name"]
            status, worse_by = verdict(
                [r["metrics"][name]["value"] for r in runs_a],
                [r["metrics"][name]["value"] for r in runs_b],
                metric["better"],
                metric["bound"],
            )
            regressed |= gated and status == "regressed"
            direction = "worse" if worse_by > 0 else "better"
            cells.append(f"{name} {status} ({abs(worse_by):.1%} {direction})")
        same_seed = {r["seed"] for r in runs_a} == {r["seed"] for r in runs_b}
        for key in ("answers_sha256", "index_sha256"):
            if same_seed:
                same = {r[key] for r in runs_a} == {r[key] for r in runs_b}
                cells.append(f"{key} {'same' if same else 'DIFFERS'}")
        failed = sum(r["failed"] for r in runs_b)
        cells.append(f"failed {failed}")
        if not gated:
            cells.append("not gated")
        print(f"{workload:10s} " + " | ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
