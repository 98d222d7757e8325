#!/usr/bin/env python3
"""Paired parent-vs-change runs of the repo benchmark: the artifact behind a gain.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --out BENCH_pr16.json
    python3 tools/bench_pairs.py --parent HEAD^ --change HEAD --pairs 1

Exports both sides into fresh directories (``git archive``; the change
defaults to the working tree's tracked and untracked-but-not-ignored
files, so a claim can be measured before it is committed), runs each
side's own ``bench/run.py --out ...`` once per pair, alternating which
side goes first, and feeds the two merged run files to ``bench/compare.py``.

Per workload and end-to-end metric the summary holds both sides' median
and quartiles, how many pairs the change won (ties count for neither)
and compare.py's verdict.  A gain may be claimed when the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's quartile distance; this tool reports, it does not gate.
``--trace`` adds one traced run per side and records the per-layer
metrics.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    )
    return done.stdout


def export(rev: Optional[str], directory: str) -> Dict[str, Optional[str]]:
    """Copy ``rev`` (``None``: the working tree) into ``directory``."""
    os.mkdir(directory)
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.split("\0")):
            source = os.path.join(ROOT, name)
            if os.path.isfile(source):  # deleted in the tree, not yet in the index
                target = os.path.join(directory, name)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                shutil.copy2(source, target)
        base = git("rev-parse", "HEAD").strip()
        return {"rev": "working tree", "commit": None, "base": base}
    commit = git("rev-parse", f"{rev}^{{commit}}").strip()
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout, check=True)
    if archive.wait():
        raise RuntimeError(f"git archive {commit} failed")
    return {"rev": rev, "commit": commit}


def run_bench(directory: str, out: str, seed: int, *extra: str) -> List[dict]:
    """One ``bench/run.py`` invocation in ``directory``; its run records."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "bench/run.py", "--seed", str(seed), "--out", out, *extra],
        cwd=directory, env=env, stdout=subprocess.DEVNULL, check=True,
    )
    with open(out) as fh:
        return json.load(fh)["runs"]


def quartiles(values: Sequence[float]) -> Dict[str, object]:
    if len(values) < 2:
        low = high = values[0]
    else:
        low, _mid, high = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": low, "q3": high,
        "values": list(values),
    }


def summarise(compare, contract: dict, parent: List[dict], change: List[dict]) -> dict:
    """Per workload x end-to-end metric: both sides, pairs won, verdict."""
    workloads: Dict[str, dict] = {}
    for name in dict.fromkeys(run["workload"] for run in change):
        runs_a = [r for r in parent if r["workload"] == name]
        runs_b = [r for r in change if r["workload"] == name]
        metrics = {}
        for metric in contract["end_to_end"]:
            key, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            a = [r["metrics"][key]["value"] for r in runs_a]
            b = [r["metrics"][key]["value"] for r in runs_b]
            status, worse_by = compare.verdict(a, b, metric["better"], metric["bound"])
            metrics[key] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                "parent": quartiles(a), "change": quartiles(b),
                "pairs_won": sum(sign * y < sign * x for x, y in zip(a, b)),
                "pairs_lost": sum(sign * y > sign * x for x, y in zip(a, b)),
                "worse_by": worse_by, "verdict": status,
            }
        workloads[name] = {
            "gated": runs_b[0]["gated"],
            "attempted": [sum(r["attempted"] for r in side) for side in (runs_a, runs_b)],
            "failed": [sum(r["failed"] for r in side) for side in (runs_a, runs_b)],
            "answers_same": {r["answers_sha256"] for r in runs_a}
            == {r["answers_sha256"] for r in runs_b},
            "index_same": {r["index_sha256"] for r in runs_a}
            == {r["index_sha256"] for r in runs_b},
            "metrics": metrics,
        }
    return workloads


def print_summary(report: dict) -> None:
    print(
        f"parent {report['parent']['rev']} vs change {report['change']['rev']}: "
        f"{report['pairs']} pair(s), seed {report['seed']}, nproc {report['nproc']}"
    )
    for name, row in report["workloads"].items():
        print(f"{name}{'' if row['gated'] else ' (not gated)'}: failed "
              f"{row['failed'][0]} -> {row['failed'][1]}, answers "
              f"{'same' if row['answers_same'] else 'DIFFER'}")
        for key, m in row["metrics"].items():
            a, b = m["parent"], m["change"]
            print(
                f"  {key:16s} {a['median']:10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] -> "
                f"{b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] {m['unit']:4s} "
                f"{-m['worse_by']:+7.1%}  won {m['pairs_won']}/{report['pairs']}  "
                f"{m['verdict']}"
            )
    for name, sides in report.get("per_layer", {}).items():
        print(f"{name} traced, parent -> change:")
        for key, (a, b) in sides.items():
            if a or b:  # a layer off this workload's path reads 0 on both sides
                print(f"  {key:34s} {a:12.4f} -> {b:12.4f}")
    print("bench/compare.py:")
    for line in report["compare_output"]:
        print("  " + line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="traffic seed, both sides")
    parser.add_argument("--trace", action="store_true", help="one traced run per side")
    parser.add_argument("--workdir", help="where the two exports go (default: a temp dir)")
    parser.add_argument("--out", help="where to write the summary (JSON)")
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        workdir = args.workdir or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(workdir, exist_ok=True)
        sides = {"parent": os.path.join(workdir, "parent"),
                 "change": os.path.join(workdir, "change")}
        info = {"parent": export(args.parent, sides["parent"]),
                "change": export(args.change, sides["change"])}
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = os.path.join(workdir, f"{side}-{pair}.json")
                runs[side] += run_bench(sides[side], out, args.seed)
                print(f"pair {pair + 1}/{args.pairs}: {side} done", file=sys.stderr)
        merged = {}
        for side, records in runs.items():
            merged[side] = os.path.join(workdir, f"{side}.json")
            with open(merged[side], "w") as fh:
                json.dump({"schema": 1, "runs": records}, fh)

        # The change's compare.py and contract: bench/ is frozen, so both
        # sides carry the same ones.
        spec = importlib.util.spec_from_file_location(
            "bench_compare", os.path.join(sides["change"], "bench", "compare.py")
        )
        compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare)
        with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
            contract = json.load(fh)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            compare_exit = compare.main([merged["parent"], merged["change"]])
        first = runs["change"][0]
        report = {
            "schema": 1,
            "tool": "tools/bench_pairs.py",
            "parent": info["parent"],
            "change": info["change"],
            "pairs": args.pairs,
            "seed": args.seed,
            "seconds": first["seconds"],
            "nproc": first["nproc"],
            "python": first["python"],
            "numpy": first["numpy"],
            "workloads": summarise(compare, contract, runs["parent"], runs["change"]),
            "compare_exit": compare_exit,
            "compare_output": captured.getvalue().splitlines(),
        }
        if args.trace:
            traced = {
                side: run_bench(
                    sides[side], os.path.join(workdir, f"{side}-traced.json"),
                    args.seed, "--trace", "1",
                )
                for side in ("parent", "change")
            }
            report["per_layer"] = {
                a["workload"]: {
                    key: [a["metrics"][key]["value"], b["metrics"][key]["value"]]
                    for key in b["metrics"]
                }
                for a, b in zip(traced["parent"], traced["change"])
            }
    print_summary(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"summary: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
