"""One workload, run inside its own process: open, warm up, measure, check.

The parent (``run.py``) builds the fixture and starts this in a child
process so that peak RSS and every cache belong to the workload alone.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import statistics
import time
from typing import Dict, List, Sequence

from repro import ReproError

import driver
import queries as query_gen
import targets
import tracing

#: Shares of ``--seconds`` in a traced run: untraced client blocks, the
#: traced calls into the real target, the stage-by-stage replay.
TRACE_SPLIT = (0.4, 0.3, 0.3)

#: Real calls between two replay runs when the two are interleaved.
REPLAY_CHUNK = 64

#: Span around the real target call, per workload.
TARGET_SPAN = {
    "warm_zipf": "server.query",
    "cold_scan": "server.query",
    "pool_zipf": "pool.query",
    "irr_zipf": "irr_index.query",
}


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MB (its lifetime peak resident set)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def shm_segments_of(pid: int) -> List[str]:
    """``/dev/shm`` entries named after ``pid`` (pool response segments,
    the transport probe's segment)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if f"-{pid}-" in e or e.endswith(f"-{pid}"))


def warm_up(query_fn, queries: Sequence) -> None:
    """Untimed pass over every distinct query so caches and lazy set-up
    are filled before timing; answers are checked in the timed section."""
    for query in queries:
        try:
            query_fn(query)
        except ReproError:
            pass


def run(config: Dict[str, object]) -> Dict[str, object]:
    """Run one workload on already-built fixtures; returns the raw result."""
    workload = str(config["workload"])
    seconds = float(config["seconds"])
    trace = bool(config["trace"])
    fixtures: List[Dict[str, object]] = list(config["fixtures"])
    clients = targets.CLIENTS[workload]
    check_seeds = workload != "irr_zipf"

    oracle_started = time.perf_counter()
    oracle = targets.open_oracle(str(fixtures[0]["rr_path"]))
    try:
        names = targets.catalog_names(oracle)
        generate = (
            query_gen.scan_queries if workload == "cold_scan" else query_gen.zipf_queries
        )
        queries = generate(names, int(config["seed"]))
        expected = driver.expected_answers(oracle.query, queries)
    finally:
        oracle.close()
    oracle_s = time.perf_counter() - oracle_started

    result: Dict[str, object] = {
        "oracle_s": oracle_s,
        "distinct_queries": len(queries),
        "answers_sha256": driver.answers_sha256(expected),
    }
    open_s: List[float] = []
    target = None
    try:
        # One open + warm-up per built fixture: set-up is timed several
        # times and the last opened target is the one measured.
        for fixture in fixtures:
            if target is not None:
                target.close()
                target = None
            started = time.perf_counter()
            target = targets.open_target(workload, fixture)
            warm_up(target.query, queries)
            open_s.append(time.perf_counter() - started)
        result["open_s"] = open_s
        result["pool_start_s"] = target.pool_start_s
        result["start_method"] = target.start_method
        result["index_prefix_cache"] = target.index_prefix_cache

        share = TRACE_SPLIT[0] if trace else 1.0
        hits_before = _hit_counters(target) if trace else None
        logs, start = driver.run_blocks(
            target.query,
            queries,
            expected,
            clients=clients,
            seconds=seconds * share,
            check_seeds=check_seeds,
        )
        result["summary"] = driver.summarise(logs, start)
        if trace:
            result["trace"] = _traced_phases(
                config, target, names, queries, expected, logs, hits_before,
                result["summary"],
            )
        worker_rss = [peak_rss_mb(pid) for pid in target.worker_pids()]
        result["worker_rss_mb"] = worker_rss
        result["rss_peak_mb"] = peak_rss_mb(os.getpid()) + sum(worker_rss)
    finally:
        if target is not None:
            target.close()
    leftovers = multiprocessing.active_children()
    segments = shm_segments_of(os.getpid())
    if leftovers or segments:
        raise RuntimeError(
            f"{workload}: left behind processes {leftovers} / segments {segments}"
        )
    return result


def _traced_phases(
    config, target, names, queries, expected, untraced_logs, hits_before, untraced
) -> Dict[str, object]:
    """Traced calls into the real target plus the per-layer replay.

    In-process RR targets alternate short runs of real calls with the
    replay of the same queries, so a burst of interference slows both sides
    of ``stage_sum_over_wall`` alike, while each side keeps its own blocks
    in the CPU caches for most of a run.  The pool's replay runs afterwards:
    in the client threads it would compete with the pool's own parent side.
    """
    workload = str(config["workload"])
    seconds = float(config["seconds"])
    call_seconds, replay_seconds = seconds * TRACE_SPLIT[1], seconds * TRACE_SPLIT[2]
    traced = tracing.TracedTarget(target, TARGET_SPAN[workload], queries)
    query_fn = traced.query
    replay = None
    if workload != "irr_zipf":
        replay = tracing.RRReplay(
            str(config["fixtures"][-1]["rr_path"]),
            names,
            queries,
            expected,
            cold=workload == "cold_scan",
        )
    interleave = workload in ("warm_zipf", "cold_scan")
    if interleave:
        pending = []

        def query_fn(query):
            answer = traced.query(query)
            pending.append(query)
            if len(pending) == REPLAY_CHUNK:
                for earlier in pending:
                    replay.step(earlier)
                pending.clear()
            return answer

    try:
        logs, start = driver.run_blocks(
            query_fn,
            queries,
            expected,
            clients=targets.CLIENTS[workload],
            seconds=call_seconds if workload == "pool_zipf" else call_seconds + replay_seconds,
            check_seeds=workload != "irr_zipf",
            n_blocks=1,
            resume=untraced_logs,
        )
        hits_after = _hit_counters(target)
        if workload == "pool_zipf":
            replay.run_for(replay_seconds)
    finally:
        if replay is not None:
            replay.close()
    traced_summary = driver.summarise(logs, start)
    spans = traced.spans()
    out: Dict[str, object] = {
        "failed": traced_summary["failed"],
        "attempted": traced_summary["attempted"],
        "block_hit_ratio": _hit_ratio(hits_before, hits_after),
        "shard_spread": _spread(traced.shard_counts),
    }
    if replay is not None:
        out["replay_wrong"] = replay.wrong
        out["replayed"] = replay.replayed
        out["sets_per_query"] = replay.sets_total / replay.replayed
        if replay.loader is not None:
            out["bytes_read"] = replay.loader.bytes_read
            out["ids_decoded"] = replay.loader.ids_decoded
        out["stage_sum_over_wall"] = tracing.stage_sum_over_wall(
            replay.tracer.spans, spans, "server.query", len(queries)
        )
        spans = tracing.merge_span_lists([spans, replay.tracer.spans])
        # What framing this workload's RR answers would cost: needs no pool.
        out["transport"] = tracing.probe_transport(
            [traced.answers[pos] for pos in sorted(traced.answers)],
            f"kbtim-bench-{os.getpid()}",
        )
    layers = tracing.layer_table(spans)
    out["layers"] = layers
    out["overhead_ratio"] = (
        layers["client.query"]["median_us"] / (untraced["block_median"]["p50_ms"] * 1e3)
        - 1.0
    )
    if replay is None:
        # IRR has no public stage API: its one stage is ``IRRIndex.query``.
        out["stage_sum_over_wall"] = (
            layers["irr_index.query"]["median_us"] / layers["client.query"]["median_us"]
        )
    with open(str(config["trace_path"]), "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": config["seed"],
                "fields": ["name", "request", "parent", "start_ns", "end_ns"],
                "spans": spans,
            },
            fh,
        )
    return out


def _hit_counters(target: targets.Target):
    if target.server_stats is None:
        return (0, 0)
    stats = target.server_stats()
    return (stats.keyword_hits, stats.keyword_misses)


def _hit_ratio(before, after) -> float:
    hits = after[0] - before[0]
    misses = after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def _spread(counts: Dict[int, int]) -> float:
    """Max ÷ mean per-shard query count (1.0 = perfectly even)."""
    if not counts:
        return 0.0
    per_shard = [counts.get(s, 0) for s in range(targets.POOL_WORKERS)]
    return max(per_shard) / statistics.fmean(per_shard)
