#!/usr/bin/env python3
"""The repository benchmark: named workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload warm_zipf --seed 0 --seconds 10 --trace 0
        one workload; the last line of stdout is the result as one JSON object
    python3 bench/run.py                     all workloads, untraced
    python3 bench/run.py --trace             all workloads, traced (per-layer)
    python3 bench/run.py --quick             smoke run, a few seconds per workload
    python3 bench/run.py --repeat 3          the repeats bench/compare.py needs

Needs numpy and the standard library only; works from any directory.
See bench/README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
for _path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

SCHEMA_VERSION = 1
#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A workload child that has not finished by then is killed and the run fails.
WATCHDOG_SECONDS = 150
#: Runnable and compared like the others, but not in BENCHMARK.json: between
#: identical runs its timings spread by 6-29 % on the 2 shared vCPUs of the
#: sandbox (README, "Why pool_zipf is not gated"), beyond any bound allowed.
DIAGNOSTIC_WORKLOADS = {
    "pool_zipf": (
        "same Zipf queries through SupervisedServerPool with 2 workers and 2 "
        "client threads: same compute plus dispatch, admission, pipe and flat "
        "answer frame between caller and worker"
    )
}
#: Per-layer metrics only the pool has, printed for ``pool_zipf`` alone.
POOL_LAYER_UNITS = {
    "dispatch.peek_us": "us",
    "dispatch.shard_spread": "ratio",
    "pool.overhead_us": "us",
    "pool.start_s": "s",
    "pool.worker_rss_mb": "MB",
}

#: Spans around calls into the real target; every other span is a replay stage.
REAL_SPANS = (
    "client.query", "dispatch.peek", "pool.query", "server.query", "irr_index.query"
)
PAGE_CACHE_NOTE = (
    "index files are read through the OS page cache of a sandbox, so "
    "latencies are the sandbox's and say nothing about a storage device"
)


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_reasons(contract: Dict[str, object]) -> Dict[str, str]:
    """Every runnable workload and why it exists, gated ones first."""
    reasons = {w["name"]: w["why"] for w in contract["workloads"]}
    reasons.update(DIAGNOSTIC_WORKLOADS)
    return reasons


def git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def build_fixtures(directory: str, repeats: int) -> List[Dict[str, object]]:
    """Build the fixture ``repeats`` times; builds must be byte-identical."""
    import targets
    import workload

    fixtures = []
    for rep in range(repeats):
        rep_dir = os.path.join(directory, f"fixture{rep}")
        os.mkdir(rep_dir)
        fixture = targets.build_fixture(rep_dir)
        for kind in ("rr", "irr"):
            fixture[f"{kind}_sha256"] = workload.file_sha256(fixture[f"{kind}_path"])
            fixture[f"{kind}_bytes"] = os.path.getsize(fixture[f"{kind}_path"])
        if fixtures and fixture["rr_sha256"] != fixtures[0]["rr_sha256"]:
            raise RuntimeError("two builds of the fixture differ: set-up is broken")
        fixtures.append(fixture)
    return fixtures


def run_child(name: str, config: Dict[str, object], directory: str) -> Dict[str, object]:
    """Run one workload in its own session under a watchdog."""
    config_path = os.path.join(directory, f"{name}.config.json")
    result_path = os.path.join(directory, f"{name}.result.json")
    with open(config_path, "w") as fh:
        json.dump(dict(config, result_path=result_path), fh)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", config_path],
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=WATCHDOG_SECONDS)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child leads its own process group: whatever it started and
        # did not stop (pool workers) dies with it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code is None:
        # Killed workers cannot unlink their response segments; they are
        # named after the process that owned the pool.
        import workload

        for segment in workload.shm_segments_of(child.pid):
            os.unlink(os.path.join("/dev/shm", segment))
        raise RuntimeError(f"workload {name} hung: killed after {WATCHDOG_SECONDS} s")
    if code != 0:
        raise RuntimeError(f"workload {name} failed in its child process (exit {code})")
    with open(result_path) as fh:
        return json.load(fh)


def child_main(config_path: str) -> None:
    import workload

    with open(config_path) as fh:
        config = json.load(fh)
    result = workload.run(config)
    with open(config["result_path"], "w") as fh:
        json.dump(result, fh)


def metric_values(record: Dict[str, object]) -> Dict[str, float]:
    """Every metric the contract names, from one run's raw result."""
    result = record["result"]
    fixtures = record["fixtures"]
    summary = result["summary"]
    served = "irr" if record["workload"] == "irr_zipf" else "rr"

    def med(key: str) -> float:
        return statistics.median(f[key] for f in fixtures)

    values = {
        "setup_s": statistics.median(
            f["build_s"] + o for f, o in zip(fixtures, result["open_s"])
        ),
        "throughput_qps": summary["throughput_qps"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p95_ms": summary["latency_p95_ms"],
        "rss_peak_mb": result["rss_peak_mb"],
        "index_mb": fixtures[-1][f"{served}_bytes"] / 1e6,
        "offline.sample_s": med("sample_s"),
        "offline.rr_write_s": med("rr_write_s"),
        "offline.irr_write_s": med("irr_write_s"),
        "offline.rr_sets_total": fixtures[-1]["rr_sets_total"],
        "storage.pages_per_keyword": summary["pages_per_keyword"],
        "storage.page_hit_ratio": summary["page_hit_ratio"],
        "storage.read_calls_per_query": summary["read_calls_per_query"],
        "irr_index.partitions_per_query": summary["irr_partitions_per_query"],
        "irr_index.loaded_over_theta": summary["irr_loaded_over_theta"]
        if served == "irr"
        else 0.0,
        "pool.start_s": result["pool_start_s"],
        "pool.worker_rss_mb": statistics.fmean(result["worker_rss_mb"] or [0.0]),
        "client.latency_p99_ms": summary["latency_p99_ms"],
        "client.block_qps_cv": summary["block_qps_cv"],
        "client.samples": summary["samples_per_block"],
        "client.fail_ratio": record["failed"] / record["attempted"],
    }
    trace = result.get("trace")
    if trace is None:
        return values
    layers = trace["layers"]

    def span(name: str, field: str = "median_us") -> float:
        # A layer that is not on this workload's path has no spans: 0.
        return layers.get(name, {}).get(field, 0.0)

    decode_ms = span("records.decode_rr", "self_total_ms") + span(
        "records.decode_inv", "self_total_ms"
    )
    ids = trace.get("ids_decoded", 0)
    transport = trace.get("transport", {})
    values.update(
        {
            "query.plan_us": span("query.plan"),
            "server.query_us": span("server.query"),
            "server.block_hit_ratio": trace["block_hit_ratio"],
            "rr_index.load_csr_hit_us": span("rr_index.load_csr_hit"),
            "rr_index.active_part_us": span("rr_index.active_part"),
            "rr_index.block_build_us": span("rr_index.block_build"),
            "coverage.merge_us": span("coverage.merge"),
            "coverage.greedy_us": span("coverage.greedy"),
            "coverage.sets_per_query": trace.get("sets_per_query", 0.0),
            "storage.read_us": span("storage.read"),
            "records.decode_rr_us": span("records.decode_rr"),
            "records.decode_inv_us": span("records.decode_inv"),
            "records.decode_mids_per_s": ids / (decode_ms * 1e3) if decode_ms else 0.0,
            "records.bytes_per_id": trace.get("bytes_read", 0) / ids if ids else 0.0,
            "dispatch.peek_us": span("dispatch.peek"),
            "dispatch.shard_spread": trace["shard_spread"],
            "pool.overhead_us": span("pool.query", "self_median_us"),
            "transport.frame_us": transport.get("frame_us", 0.0),
            "transport.bytes_per_answer": transport.get("bytes_per_answer", 0.0),
            "irr_index.query_us": span("irr_index.query"),
            "trace.stage_sum_over_wall": trace["stage_sum_over_wall"],
            "trace.overhead_ratio": trace["overhead_ratio"],
        }
    )
    return values


def run_workload(
    name: str,
    fixtures: List[Dict[str, object]],
    directory: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    contract: Dict[str, object],
) -> Dict[str, object]:
    """Run one workload and assemble its run record."""
    import numpy
    import targets

    started = time.time()
    config = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fixtures": fixtures,
        "trace_path": os.path.join(OUT_DIR, f"trace-{name}.json"),
    }
    result = run_child(name, config, directory)
    summary = result["summary"]
    traced = result.get("trace", {})
    record: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "workload": name,
        "why": workload_reasons(contract)[name],
        "gated": name not in DIAGNOSTIC_WORKLOADS,
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "started_unix": started,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": result["start_method"],
        "loop": "closed",
        "clients": targets.CLIENTS[name],
        "fixture_parameters": targets.FIXTURE,
        "cache_keywords": {
            "working_set": targets.FIXTURE["n_topics"],
            "server_warm": targets.SERVER_CACHE_WARM,
            "server_cold": targets.SERVER_CACHE_COLD,
            "index_prefix_cache": result["index_prefix_cache"],
            "pool_workers": targets.POOL_WORKERS,
        },
        "note": PAGE_CACHE_NOTE,
        "fixtures": [
            {k: v for k, v in f.items() if not k.endswith("_path")} for f in fixtures
        ],
        "index_sha256": fixtures[-1][
            "irr_sha256" if name == "irr_zipf" else "rr_sha256"
        ],
        "answers_sha256": result["answers_sha256"],
        "attempted": summary["attempted"]
        + traced.get("attempted", 0)
        + traced.get("replayed", 0),
        "failed": summary["failed"]
        + traced.get("failed", 0)
        + traced.get("replay_wrong", 0),
        "seed_mismatches": summary["seed_mismatches"],
        "result": result,
    }
    values = metric_values(record)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    if trace and name == "pool_zipf":
        units.update(POOL_LAYER_UNITS)
    record["metrics"] = {
        metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()
    }
    return record


def print_record(record: Dict[str, object]) -> None:
    summary = record["result"]["summary"]
    print(
        f"\n== {record['workload']}  seed {record['seed']}  "
        f"{record['clients']} closed-loop client(s)  nproc {record['nproc']}  "
        f"{summary['attempted']} queries in {len(summary['blocks'])} blocks "
        f"(min {summary['samples_per_block']}/block)  failed {record['failed']}"
        + ("" if record["gated"] else "  [diagnostic workload, not gated]")
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    trace = record["result"].get("trace")
    if trace:
        print("  layer self time, largest first (median µs per call × calls):")
        rows = sorted(
            trace["layers"].items(), key=lambda kv: -kv[1]["self_total_ms"]
        )
        for name, row in rows:
            kind = "real call" if name in REAL_SPANS else "replay"
            print(
                f"    {name:26s} {row['self_median_us']:10.1f} µs × {row['count']:6d}"
                f" = {row['self_total_ms']:9.1f} ms  ({kind})"
            )
        stages = [n for n, _ in rows if n not in REAL_SPANS and n != "replay.query"]
        if stages:
            print(f"  top two replayed stages: {', '.join(stages[:2])}")
    print(f"  note: {record['note']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true", help="smoke run")
    parser.add_argument("--repeat", type=int, default=1, help="runs of the suite")
    parser.add_argument("--out", help="where to write the run records (JSON)")
    args = parser.parse_args(argv)
    if args.child:
        child_main(args.child)
        return 0

    # Turn a polite kill into an exit, so the child and the build directory
    # are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: the program's source is not at {ROOT}/src", file=sys.stderr)
        return 2
    contract = load_contract()
    names = list(workload_reasons(contract))
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    seconds = args.seconds or (1.0 if args.quick else float(contract["run_seconds"]))
    repeats = 1 if args.quick else SETUP_REPEATS

    os.makedirs(OUT_DIR, exist_ok=True)
    records = []
    for _ in range(args.repeat):
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as directory:
            fixtures = build_fixtures(directory, repeats)
            for name in selected:
                record = run_workload(
                    name, fixtures, directory,
                    seed=args.seed, seconds=seconds, trace=bool(args.trace),
                    contract=contract,
                )
                print_record(record)
                records.append(record)
    out_path = args.out or os.path.join(
        OUT_DIR, "traced.json" if args.trace else "run.json"
    )
    with open(out_path, "w") as fh:
        json.dump({"schema": SCHEMA_VERSION, "runs": records}, fh)
    print(f"\nrun records: {out_path}")
    if args.workload:
        record = records[-1]
        print(
            json.dumps(
                {
                    "correct": record["failed"] == 0,
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": record["metrics"],
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
