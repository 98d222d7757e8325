"""Serving-tier throughput: caches, batching, and concurrent serving.

Beyond the paper: the deployment the paper motivates (an ad platform
answering a query *stream*) amortises keyword decode work across queries
and across *concurrent* clients.  This bench measures

* the steady-state speedup of the :class:`~repro.core.server.KBTIMServer`
  keyword cache over re-reading the index per query (PR 1/3 tiers),
* batched execution (``query_batch``) vs the same queries issued
  sequentially, on a Zipf-skewed mixed-length workload (PR 4),
* a closed-loop worker sweep of the serving pool at 1/2/4/8 worker
  processes: p50/p95/p99 latency and QPS (PR 4/5),
* the dispatch matrix (PR 9): static crc32 vs load-aware weighted
  rendezvous, Zipf-mixed vs balanced streams, reporting QPS and the
  per-shard query-count spread (max/mean).  The guard fails the job if
  rendezvous lets the Zipf stream spread past 2.0x even.
"""

import time

import numpy as np
import pytest

from repro.core.chaos import ChaosController, FaultEvent, FaultPlan
from repro.core.rr_index import RRIndex
from repro.core.server import KBTIMServer
from repro.datasets.workload import (
    make_mixed_workload,
    make_workload,
    poisson_arrivals,
    replay,
)

from conftest import emit
from repro.experiments.reporting import Table


@pytest.fixture(scope="module")
def serving_setup(ctx):
    ds = ctx.default_dataset("twitter")
    ctx.build_index(ds, kind="rr")
    path = ctx.index_path(ds, kind="rr")
    queries = list(
        make_workload(ds.profiles, length=3, k=20, n_queries=12, rng=55)
    )
    return path, queries


@pytest.fixture(scope="module")
def mixed_setup(ctx):
    """The PR 4 serving regime: Zipf keyword skew, mixed lengths and k."""
    ds = ctx.default_dataset("twitter")
    ctx.build_index(ds, kind="rr")
    path = ctx.index_path(ds, kind="rr")
    n_queries = 24 * ctx.scale.queries_per_point
    ks = tuple(k for k in (10, 25) if k <= ctx.scale.policy.K) or (
        ctx.scale.policy.K,
    )
    queries = list(
        make_mixed_workload(
            ds.profiles,
            n_queries=n_queries,
            lengths=ctx.scale.keyword_lengths,
            ks=ks,
            rng=56,
        )
    )
    return ds, path, queries


def test_cold_index_queries(serving_setup, benchmark):
    """Per-query cold cost: every query re-reads and re-decodes.

    The decoded-prefix cache is disabled so this stays the cold baseline
    the warm-server comparison is measured against.
    """
    path, queries = serving_setup

    def run_cold():
        with RRIndex(path, prefix_cache_keywords=0) as index:
            for query in queries:
                index.query(query)

    benchmark.pedantic(run_cold, rounds=3, iterations=1)


def test_warm_server_queries(serving_setup, benchmark, results_dir):
    path, queries = serving_setup
    server = KBTIMServer(RRIndex(path), cache_keywords=32)
    for query in queries:  # warm-up pass
        server.query(query)

    def run_warm():
        for query in queries:
            server.query(query)

    benchmark.pedantic(run_warm, rounds=3, iterations=1)

    table = Table(
        "Serving tier: keyword-block cache statistics",
        ("queries", "keyword hits", "keyword misses", "hit ratio", "p95 (ms)"),
    )
    table.add_row(
        server.stats.queries,
        server.stats.keyword_hits,
        server.stats.keyword_misses,
        server.stats.hit_ratio,
        server.stats.percentile_latency(95) * 1e3,
    )
    emit(table, results_dir, "server_throughput")
    assert server.stats.hit_ratio > 0.5
    server.index.close()


def test_batched_vs_sequential(ctx, mixed_setup, benchmark, results_dir):
    """query_batch loads each keyword once; sequential serving reloads
    on every cache miss.  The block cache is
    deliberately smaller than the keyword universe (the deployed regime:
    millions of keywords, bounded memory), so sequential execution
    thrashes where one shared-scan batch pays each keyword once.  Same
    bit-identical answers, fewer reads, higher throughput."""
    _ds, path, queries = mixed_setup
    cache_keywords = 4  # < distinct keywords in the stream, by design

    def run_sequential():
        with KBTIMServer(RRIndex(path), cache_keywords=cache_keywords) as server:
            return [server.query(q) for q in queries], server

    def run_batched():
        with KBTIMServer(RRIndex(path), cache_keywords=cache_keywords) as server:
            return server.query_batch(queries), server

    # Interleave untimed A/B rounds for the table; benchmark the batch.
    rounds = 3
    seq_seconds, batch_seconds = [], []
    seq_reads = batch_reads = None
    sequential_answers = batched_answers = None
    for _ in range(rounds):
        started = time.perf_counter()
        sequential_answers, seq_server = run_sequential()
        seq_seconds.append(time.perf_counter() - started)
        seq_reads = seq_server.index.stats.read_calls
        started = time.perf_counter()
        batched_answers, batch_server = run_batched()
        batch_seconds.append(time.perf_counter() - started)
        batch_reads = batch_server.index.stats.read_calls

    benchmark.pedantic(run_batched, rounds=1, iterations=1)

    for a, b in zip(sequential_answers, batched_answers):
        assert a.seeds == b.seeds  # batching must never change answers
    seq_med = float(np.median(seq_seconds))
    batch_med = float(np.median(batch_seconds))
    table = Table(
        "Serving tier: batched vs sequential (cold, mixed Zipf workload)",
        ("mode", "queries", "read calls", "median s", "q/s"),
    )
    table.add_row("sequential", len(queries), seq_reads, seq_med, len(queries) / seq_med)
    table.add_row("batched", len(queries), batch_reads, batch_med, len(queries) / batch_med)
    emit(table, results_dir, "server_batch_vs_sequential")
    assert batch_reads < seq_reads  # deterministic: batching shares keyword loads
    if ctx.scale.name != "bench-smoke":
        # The acceptance headline (batched > sequential QPS) is a
        # wall-clock claim: at smoke scale a median of three sub-second
        # runs on a shared vCPU is noise, and tier-1 must not flake on it.
        assert batch_med < seq_med


@pytest.fixture(scope="module")
def balanced_setup(ctx):
    """A dispatch-balanced warm stream: single-keyword queries cycling
    over every indexed keyword.

    The mixed Zipf stream's *primary-keyword* dispatch is heavily skewed
    (the lexicographically smallest keyword of a multi-keyword query
    concentrates on few names), so a worker sweep over it measures shard
    imbalance, not the worker model.  This stream spreads primaries over
    the whole catalog, which is the regime where worker parallelism can
    actually show up.
    """
    ds = ctx.default_dataset("twitter")
    ctx.build_index(ds, kind="rr")
    path = ctx.index_path(ds, kind="rr")
    with RRIndex(path) as index:
        names = index.keywords()
    k = min(25, ctx.scale.policy.K)
    from repro.core.query import KBTIMQuery

    queries = [
        KBTIMQuery((names[i % len(names)],), k)
        for i in range(24 * ctx.scale.queries_per_point * 2)
    ]
    return ds, queries


def _transport_overhead_ns(pool, queries) -> float:
    """Mean per-query overhead *outside* the worker, in nanoseconds.

    Each answer carries the worker-measured compute time
    (``stats.elapsed_seconds``); the caller-observed wall time minus
    that is dispatch + transport — pipe framing, response encode/decode,
    and the shared-memory flat-frame round trip.
    """
    probes = queries[: min(16, len(queries))]
    wall = 0.0
    inside = 0.0
    for query in probes:
        started = time.perf_counter()
        selection = pool.query(query)
        wall += time.perf_counter() - started
        inside += selection.stats.elapsed_seconds
    return max(0.0, (wall - inside) / len(probes)) * 1e9


def _rss_per_worker(pool, workers: int) -> float:
    """Mean per-worker resident bytes."""
    return pool.health().rss_bytes / workers


def test_pool_worker_sweep(ctx, mixed_setup, balanced_setup, benchmark, results_dir):
    """Closed-loop replay against the pool at 1/2/4/8 worker processes.

    Every point runs the default crc32 primary-keyword shard dispatch
    (the policies themselves are compared in test_dispatch_spread); the
    variables are the worker count and the traffic shape.  Two regimes:

    * ``zipf-mixed`` — the PR 4 serving stream.  Primary-keyword skew
      concentrates most queries on one shard, so workers cannot scale it
      (the sweep pins the dispatch-skew ceiling and queueing percentiles
      under concurrent load).
    * ``balanced`` — single-keyword queries cycling the whole catalog.
      Here shards are populated evenly and the workers execute on as
      many *cores* as the machine provides; the per-PR CI artifact
      re-measures this table on multi-core runners.

    Client concurrency equals the worker count, so each point measures
    what N shards actually execute.
    """
    ds, _path, zipf_queries = mixed_setup
    _ds, balanced_queries = balanced_setup
    regimes = [("zipf-mixed", zipf_queries), ("balanced", balanced_queries)]
    sweep = []

    def run_sweep():
        sweep.clear()
        for regime, queries in regimes:
            for workers in (1, 2, 4, 8):
                with ctx.open_server_pool(ds, n_workers=workers) as pool:
                    pool.query_batch(queries)  # warm the shard caches
                    report = replay(pool, queries, threads=workers)
                    sweep.append(
                        (
                            regime,
                            workers,
                            report,
                            pool.stats.hit_ratio,
                            _transport_overhead_ns(pool, queries),
                            _rss_per_worker(pool, workers),
                        )
                    )

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(
        "Server pool: closed-loop worker sweep (warm)",
        (
            "regime",
            "workers",
            "q/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "hit ratio",
            "transport (ns/q)",
            "rss/worker (MB)",
        ),
    )
    for regime, workers, report, hit_ratio, transport_ns, rss in sweep:
        table.add_row(
            regime,
            workers,
            report.qps,
            report.percentile_latency(50) * 1e3,
            report.percentile_latency(95) * 1e3,
            report.percentile_latency(99) * 1e3,
            hit_ratio,
            transport_ns,
            rss / 1e6,
        )
    emit(table, results_dir, "server_pool_worker_sweep")
    for regime, queries in regimes:
        expected = len(queries)
        points = [entry for entry in sweep if entry[0] == regime]
        assert all(report.n_queries == expected for _r, _w, report, *_ in points)
        assert all(report.qps > 0 for _r, _w, report, *_ in points)
    # Memory guard: the pool's *per-worker* RSS must stay flat
    # as workers grow — the index pages are mmap-shared and answers ride
    # shared-memory frames, so total RSS should scale ~linearly (each
    # worker pays its own caches), never superlinearly.  Allow generous
    # noise: interpreter overhead dominates at this scale.
    for regime, _queries in regimes:
        by_workers = {
            w: rss for r, w, _rep, _h, _t, rss in sweep if r == regime
        }
        lo, hi = by_workers[min(by_workers)], by_workers[max(by_workers)]
        assert hi <= 1.5 * lo + 32e6, (
            f"{regime}: per-worker RSS grew from {lo / 1e6:.1f} MB at "
            f"{min(by_workers)} workers to {hi / 1e6:.1f} MB at "
            f"{max(by_workers)} — superlinear total growth"
        )
    # The perf narrative lives in BENCH_pr5.json; bit-identical answers
    # are regression-tested in tests/test_process_pool.py.


def test_dispatch_spread(
    ctx, mixed_setup, balanced_setup, benchmark, results_dir
):
    """Dispatch matrix: crc32 vs rendezvous, per-shard spread and QPS.

    The PR 4/5 sweeps showed the static crc32 primary-keyword map
    concentrating a Zipf-mixed stream on one shard.  This table pins the
    fix: the same two streams replayed through both dispatch policies on
    a 4-worker pool, reporting QPS plus ``dispatch_spread`` — the
    max/mean per-shard query count (1.0 is perfectly even; 4.0 is one
    shard taking everything).

    Guard: weighted rendezvous must hold the Zipf stream within 2.0x of
    even (the PR acceptance bound).  No relative crc32-vs-rendezvous
    assertion here: at smoke scale the stream's primary skew is mild and
    load-aware routing is timing-dependent, so the two policies are
    statistically tied — the deterministic skew case (crc32 piling 39 of
    48 queries on one shard, rendezvous holding 1.5x even) is pinned in
    tests/test_dispatch.py.  Answers are dispatch-independent by
    construction (every worker serves the same immutable index); that
    bit-identical guarantee is regression-tested there too, so this
    bench only measures balance.
    """
    ds, _path, zipf_queries = mixed_setup
    _ds, balanced_queries = balanced_setup
    regimes = [("zipf-mixed", zipf_queries), ("balanced", balanced_queries)]
    rows = []

    def run_matrix():
        rows.clear()
        for dispatch in ("crc32", "rendezvous"):
            for regime, queries in regimes:
                with ctx.open_server_pool(
                    ds, n_workers=4, dispatch=dispatch
                ) as pool:
                    pool.query_batch(queries)  # warm the shard caches
                    base = pool.snapshot().workers
                    report = replay(pool, queries, threads=4)
                    counts = [
                        w.stats.queries - b.stats.queries
                        for w, b in zip(pool.snapshot().workers, base)
                    ]
                    rows.append((dispatch, regime, report, counts))

    benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    table = Table(
        "Server pool: dispatch spread, crc32 vs rendezvous (4 workers, warm)",
        (
            "dispatch",
            "regime",
            "q/s",
            "per-shard max",
            "per-shard mean",
            "dispatch_spread",
        ),
    )
    spreads = {}
    for dispatch, regime, report, counts in rows:
        mean = sum(counts) / len(counts)
        spreads[(dispatch, regime)] = max(counts) / mean
        table.add_row(
            dispatch,
            regime,
            report.qps,
            max(counts),
            mean,
            max(counts) / mean,
        )
    emit(table, results_dir, "server_dispatch_spread")
    # Every query is served exactly once whichever policy routes it.
    for _dispatch, regime, _report, counts in rows:
        expected = dict(regimes)[regime]
        assert sum(counts) == len(expected)
    assert spreads[("rendezvous", "zipf-mixed")] <= 2.0, (
        "rendezvous dispatch let the Zipf stream spread to "
        f"{spreads[('rendezvous', 'zipf-mixed')]:.2f}x even (bound: 2.0x)"
    )


def test_supervised_resilience(ctx, mixed_setup, benchmark, results_dir):
    """The pool under deterministic faults: restart/shed counters.

    Two scenarios, one table row each, so the per-PR bench-smoke artifact
    carries the robustness counters alongside the throughput numbers:

    * ``kill-midstream`` — a :class:`FaultPlan` kills one worker halfway
      through a closed-loop replay.  The supervisor must heal it on the
      next request to that shard (``restarts >= 1``) with zero failed
      queries, and the healing cost shows up in the latency columns.
    * ``saturation-shed`` — open-loop Poisson arrivals far past capacity
      against a tiny admission budget (``max_inflight=2``).  Excess load
      is shed with typed errors instead of queueing, so the *admitted*
      p99 stays bounded while ``sheds`` counts what was turned away.
    """
    ds, _path, base_queries = mixed_setup
    rows = []

    def run_scenarios():
        rows.clear()
        # --- kill-midstream: closed loop, one worker killed halfway ---
        queries = base_queries
        kill_at = len(queries) // 2
        with ctx.open_server_pool(ds, n_workers=2) as pool:
            victim = pool.shard_of(queries[kill_at])
            plan = FaultPlan(
                events=[FaultEvent(kind="kill", after_query=kill_at, shard=victim)]
            )
            report = replay(
                pool, queries, threads=2, chaos=ChaosController(plan, pool)
            )
            rows.append(("kill-midstream", report))
        # --- saturation-shed: open loop far past capacity, tiny budget ---
        saturated = base_queries * 5
        arrivals = poisson_arrivals(len(saturated), 5000.0, rng=57)
        with ctx.open_server_pool(ds, n_workers=2, max_inflight=2) as pool:
            report = replay(
                pool,
                saturated,
                threads=8,
                arrivals=arrivals,
                deadline=30.0,
                tolerate_errors=True,
            )
            rows.append(("saturation-shed", report))

    benchmark.pedantic(run_scenarios, rounds=1, iterations=1)

    table = Table(
        "Supervised pool: fault-injection counters (chaos replay)",
        (
            "scenario",
            "queries",
            "ok",
            "failed",
            "restarts",
            "retries",
            "sheds",
            "goodput q/s",
            "p99 admitted (ms)",
        ),
    )
    for scenario, report in rows:
        table.add_row(
            scenario,
            report.n_queries,
            report.n_ok,
            report.n_failed,
            report.restarts,
            report.retries,
            report.sheds,
            report.goodput_qps,
            report.percentile_latency(99, admitted_only=True) * 1e3,
        )
    emit(table, results_dir, "server_supervised_resilience")
    killed, shed = rows[0][1], rows[1][1]
    assert killed.n_failed == 0 and killed.restarts >= 1  # healed, no losses
    assert shed.sheds > 0 and shed.sheds == shed.n_failed  # shed, not queued
    assert shed.percentile_latency(99, admitted_only=True) < 30.0
