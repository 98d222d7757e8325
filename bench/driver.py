"""Closed-loop workload driver: blocks, answer checking, summary statistics.

Every client sends its next query only after the previous answer
arrived.  The timed section is ``N_BLOCKS`` equal time slices and each
timing is summarised per block.  Other tenants of a shared sandbox only
ever slow a block down, and they do so in bursts of a second or more, so
the reported value is the mean over the best quarter of the blocks
(``undisturbed``); the median over all blocks is kept beside it in the
run record.  No tracing code runs here.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro import KBTIMQuery, ReproError, SeedSelection

N_BLOCKS = 20

Expected = Tuple[Tuple[int, ...], Tuple[int, ...], int]


def expected_answers(oracle_query: Callable, queries: Sequence[KBTIMQuery]):
    """Answer each distinct query once through the oracle."""
    out: List[Expected] = []
    for query in queries:
        answer = oracle_query(query)
        out.append((answer.seeds, answer.marginal_coverages, answer.theta))
    return out


def answers_sha256(expected: Sequence[Expected]) -> str:
    """Digest of the checked answers, so two commits can be diffed."""
    digest = hashlib.sha256()
    for seeds, marginals, theta in expected:
        digest.update(repr((seeds, marginals, theta)).encode())
    return digest.hexdigest()


def answer_matches(answer: SeedSelection, expected: Expected, *, seeds: bool) -> bool:
    """Bit-for-bit check; IRR is held to marginals and θ only (Theorem 3)."""
    if answer.marginal_coverages != expected[1] or answer.theta != expected[2]:
        return False
    return answer.seeds == expected[0] if seeds else True


class ClientLog:
    """What one closed-loop client observed, block by block."""

    def __init__(self, n_blocks: int) -> None:
        self.latencies: List[List[float]] = [[] for _ in range(n_blocks)]
        self.block_end = [0.0] * n_blocks
        #: Where this client stands in its cycle (a later phase resumes here).
        self.cursor = 0
        self.failed = 0
        self.seed_mismatches = 0
        self.read_calls = 0
        self.pages_read = 0
        self.pages_hit = 0
        self.keywords = 0
        self.irr_partitions = 0
        self.irr_loaded = 0
        self.irr_considered = 0


def _client_loop(
    query_fn: Callable,
    queries: Sequence[KBTIMQuery],
    expected: Sequence[Expected],
    positions: Sequence[int],
    check_seeds: bool,
    start: float,
    deadlines: Sequence[float],
    log: ClientLog,
) -> None:
    """Cycle through ``positions`` until each block's deadline passes."""
    clock = time.perf_counter
    while clock() < start:
        time.sleep(0.0005)
    cursor = log.cursor
    n = len(positions)
    for block, deadline in enumerate(deadlines):
        latencies = log.latencies[block]
        while True:
            pos = positions[cursor % n]
            cursor += 1
            began = clock()
            try:
                answer = query_fn(queries[pos])
            except ReproError:
                answer = None
            ended = clock()
            latencies.append(ended - began)
            if answer is None:
                log.failed += 1
            else:
                want = expected[pos]
                if not answer_matches(answer, want, seeds=check_seeds):
                    log.failed += 1
                elif answer.seeds != want[0]:
                    log.seed_mismatches += 1
                stats = answer.stats
                log.read_calls += stats.io.read_calls
                log.pages_read += stats.io.pages_read
                log.pages_hit += stats.io.pages_hit
                log.irr_partitions += stats.partitions_loaded
                log.irr_loaded += stats.rr_sets_loaded
                log.irr_considered += stats.rr_sets_considered
            log.keywords += len(queries[pos].keywords)
            if ended >= deadline:
                break
        log.block_end[block] = ended
    log.cursor = cursor


def run_blocks(
    query_fn: Callable,
    queries: Sequence[KBTIMQuery],
    expected: Sequence[Expected],
    *,
    clients: int,
    seconds: float,
    check_seeds: bool,
    n_blocks: int = N_BLOCKS,
    resume: Sequence[ClientLog] = (),
) -> Tuple[List[ClientLog], float]:
    """Run the timed section; returns per-client logs and the start instant.

    Client ``c`` of ``C`` cycles through queries ``c, c+C, c+2C, ...``, so
    together the clients cover the query list evenly.  ``resume`` takes
    the logs of an earlier section, whose cycles this one continues.
    """
    logs = [ClientLog(n_blocks) for _ in range(clients)]
    for log, earlier in zip(logs, resume):
        log.cursor = earlier.cursor
    start = time.perf_counter() + (0.02 if clients > 1 else 0.0)
    deadlines = [start + seconds * (b + 1) / n_blocks for b in range(n_blocks)]
    jobs = [
        (
            query_fn,
            queries,
            expected,
            range(c, len(queries), clients),
            check_seeds,
            start,
            deadlines,
            logs[c],
        )
        for c in range(clients)
    ]
    if clients == 1:
        _client_loop(*jobs[0])
    else:
        threads = [threading.Thread(target=_client_loop, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return logs, start


def undisturbed(values: Sequence[float], *, higher_is_better: bool = False) -> float:
    """Mean of the best quarter of per-block values."""
    ranked = sorted(values, reverse=higher_is_better)
    return statistics.fmean(ranked[: max(1, len(ranked) // 4)])


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def summarise(logs: Sequence[ClientLog], start: float) -> Dict[str, object]:
    """Per-block raw values plus the median-over-blocks summary."""
    n_blocks = len(logs[0].latencies)
    blocks = []
    block_start = start
    for block in range(n_blocks):
        merged = sorted(lat for log in logs for lat in log.latencies[block])
        end = max(log.block_end[block] for log in logs)
        blocks.append(
            {
                "queries": len(merged),
                "wall_s": end - block_start,
                "qps": len(merged) / (end - block_start),
                "p50_ms": percentile(merged, 0.50) * 1e3,
                "p95_ms": percentile(merged, 0.95) * 1e3,
                "p99_ms": percentile(merged, 0.99) * 1e3,
                "beyond_p95": len(merged) - int(0.95 * len(merged)) - 1,
            }
        )
        block_start = end
    attempted = sum(b["queries"] for b in blocks)
    qps = [b["qps"] for b in blocks]

    def total(field: str) -> int:
        return sum(getattr(log, field) for log in logs)

    return {
        "blocks": blocks,
        "attempted": attempted,
        "failed": total("failed"),
        "seed_mismatches": total("seed_mismatches"),
        "throughput_qps": undisturbed(qps, higher_is_better=True),
        "latency_p50_ms": undisturbed([b["p50_ms"] for b in blocks]),
        "latency_p95_ms": undisturbed([b["p95_ms"] for b in blocks]),
        "latency_p99_ms": undisturbed([b["p99_ms"] for b in blocks]),
        "block_median": {
            "qps": statistics.median(qps),
            "p50_ms": statistics.median(b["p50_ms"] for b in blocks),
            "p95_ms": statistics.median(b["p95_ms"] for b in blocks),
            "p99_ms": statistics.median(b["p99_ms"] for b in blocks),
        },
        "block_qps_cv": statistics.pstdev(qps) / statistics.fmean(qps),
        "samples_per_block": min(b["queries"] for b in blocks),
        "read_calls_per_query": total("read_calls") / attempted,
        "pages_per_keyword": (total("pages_read") + total("pages_hit"))
        / total("keywords"),
        "page_hit_ratio": _ratio(
            total("pages_hit"), total("pages_read") + total("pages_hit")
        ),
        "irr_partitions_per_query": total("irr_partitions") / attempted,
        "irr_loaded_over_theta": _ratio(total("irr_loaded"), total("irr_considered")),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
