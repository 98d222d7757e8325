"""Keyword query workloads and the serving-tier replay driver.

The paper draws real queries from the AOL log, keeps those whose terms map
into the 200-topic space, and extracts 100 queries per length 1..6.
Without the (long-withdrawn) AOL data we generate workloads with the same
marginal the experiments exercise: queries mention popular topics more
often, lengths range 1..6, and every query resolves against the dataset's
topic space (queries over topics nobody cares about are filtered, like the
paper's topic-keyword filter).

Two generators cover the two experiment regimes:

* :func:`make_workload` — the paper's figure sweeps: one fixed length and
  seed budget per batch;
* :func:`make_mixed_workload` — the serving-tier regime: Zipf keyword
  skew across *mixed* query lengths and ``k`` values, the traffic shape
  a deployed ad platform actually sees.

:func:`replay` then drives any query server over such a workload —
closed-loop (each worker fires its next query the moment the previous
answer returns) or open-loop against an arrival schedule such as
:func:`poisson_arrivals` — and reports per-query latencies and
throughput (:class:`ReplayReport`).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import KBTIMQuery
from repro.errors import QueryError, ReproError
from repro.profiles.generators import zipf_weights
from repro.profiles.store import ProfileStore
from repro.utils.rng import RngLike, as_rng, weighted_sample
from repro.utils.validation import check_positive_int

__all__ = [
    "QueryWorkload",
    "ReplayReport",
    "make_workload",
    "make_mixed_workload",
    "poisson_arrivals",
    "replay",
]


@dataclass(frozen=True)
class QueryWorkload:
    """A batch of KB-TIM queries of a common length and seed budget."""

    length: int
    k: int
    queries: Tuple[KBTIMQuery, ...]

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


def make_workload(
    profiles: ProfileStore,
    *,
    length: int,
    k: int,
    n_queries: int = 20,
    zipf_exponent: float = 1.0,
    rng: RngLike = None,
) -> QueryWorkload:
    """Generate ``n_queries`` keyword sets of the given ``length``:
    :func:`make_mixed_workload` with one length and one budget (its
    draws of those choices consume no random bits, so the stream is the
    same).

    Topics are drawn without replacement with probability proportional to
    a Zipf law over topic ids, restricted to topics that at least one user
    cares about (``df > 0``) — the analogue of filtering AOL queries to
    the extracted topic vocabulary.
    """
    queries = make_mixed_workload(
        profiles,
        n_queries=n_queries,
        lengths=(length,),
        ks=(k,),
        zipf_exponent=zipf_exponent,
        rng=rng,
    )
    return QueryWorkload(length=length, k=k, queries=queries)


def make_mixed_workload(
    profiles: ProfileStore,
    *,
    n_queries: int,
    lengths: Sequence[int] = (1, 2, 3, 4, 5, 6),
    ks: Sequence[int] = (10, 25, 50),
    zipf_exponent: float = 1.0,
    rng: RngLike = None,
) -> Tuple[KBTIMQuery, ...]:
    """Generate a serving-tier query stream with mixed lengths and budgets.

    Each query draws its length uniformly from ``lengths`` and its seed
    budget uniformly from ``ks``; keywords are drawn without replacement
    with Zipf(``zipf_exponent``) popularity skew over usable topics
    (``df > 0``).  This is the traffic shape the serving benchmarks
    replay: heavy keyword reuse across queries of *different* shapes, so
    batch/cache tiers must serve one decoded block at many prefixes.

    Parameters
    ----------
    profiles:
        The dataset's user-profile store (supplies the topic space).
    n_queries:
        Stream length.
    lengths:
        Candidate ``|Q.T|`` values (paper sweeps 1..6).
    ks:
        Candidate seed budgets ``Q.k``.
    zipf_exponent:
        Keyword popularity skew (0 = uniform).
    rng:
        Seed or generator for reproducible streams.

    Returns
    -------
    The queries, in arrival order.

    Raises
    ------
    QueryError
        If ``lengths`` or ``ks`` is empty, or the topic space has fewer
        usable topics than ``max(lengths)``.
    ValueError
        If ``n_queries`` or any entry of ``lengths``/``ks`` is not a
        positive int (``TypeError`` for non-ints).
    """
    n_queries = check_positive_int("n_queries", n_queries)
    if not lengths or not ks:
        raise QueryError("lengths and ks must be non-empty")
    lengths = tuple(check_positive_int("length", length) for length in lengths)
    ks = tuple(check_positive_int("k", k) for k in ks)
    gen = as_rng(rng)

    topics = profiles.topics
    usable = [t for t in range(topics.size) if profiles.df(t) > 0]
    if len(usable) < max(lengths):
        raise QueryError(
            f"workload needs {max(lengths)} usable topics but only "
            f"{len(usable)} have any relevant user"
        )
    weights = zipf_weights(topics.size, zipf_exponent)[usable]
    weights = weights / weights.sum()
    usable_arr = np.asarray(usable, dtype=np.int64)

    queries: List[KBTIMQuery] = []
    for _ in range(n_queries):
        length = int(gen.choice(len(lengths)))
        k = int(gen.choice(len(ks)))
        chosen = usable_arr[weighted_sample(gen, weights, lengths[length])]
        names = tuple(topics.name(int(t)) for t in chosen)
        queries.append(KBTIMQuery(names, ks[k]))
    return tuple(queries)


def poisson_arrivals(
    n_queries: int, rate_qps: float, rng: RngLike = None
) -> np.ndarray:
    """Open-loop Poisson arrival offsets for ``n_queries`` queries.

    Inter-arrival gaps are exponential with mean ``1 / rate_qps``; the
    returned array holds cumulative offsets in seconds from replay start
    (non-decreasing, length ``n_queries``).  Feed it to :func:`replay`'s
    ``arrivals`` to model clients that fire on their own clock regardless
    of how fast the server answers — the regime where queueing delay
    shows up in the latency percentiles.

    Raises
    ------
    QueryError
        On a non-positive ``rate_qps``.
    """
    n_queries = check_positive_int("n_queries", n_queries)
    if not rate_qps > 0:
        raise QueryError(f"rate_qps must be > 0, got {rate_qps}")
    gen = as_rng(rng)
    gaps = gen.exponential(1.0 / rate_qps, size=n_queries)
    return np.cumsum(gaps)


@dataclass(frozen=True)
class ReplayReport:
    """What one :func:`replay` run measured.

    Attributes
    ----------
    results:
        Per-query :class:`~repro.core.results.SeedSelection`, in
        workload order (independent of completion order).
    latencies:
        Per-query latency in seconds, in workload order.  Closed loop:
        time from issue to answer.  Open loop: time from the query's
        *scheduled arrival* to its answer, so queueing delay behind a
        saturated server is included.
    elapsed_seconds:
        Wall-clock duration of the whole replay.
    threads:
        Concurrency the replay ran at.
    errors:
        Per-query failure strings (``"TypeName: message"``), ``None``
        for answered queries, in workload order.  Empty when the replay
        ran with ``tolerate_errors=False`` (the pre-robustness default,
        where the first failure propagates instead).
    fault_events:
        JSON-ready records of the injected faults that fired (from the
        chaos controller), in firing order.
    deadline:
        The SLA threshold in seconds used to classify goodput, or
        ``None``.  Enforcement is the server's job (its request
        timeout); this is pure classification.
    restarts / retries / sheds:
        Supervision counter deltas over the replay window (0 when the
        server has no such counters).
    """

    results: Tuple
    latencies: Tuple[float, ...]
    elapsed_seconds: float
    threads: int
    errors: Tuple[Optional[str], ...] = ()
    fault_events: Tuple[dict, ...] = ()
    deadline: Optional[float] = None
    restarts: int = 0
    retries: int = 0
    sheds: int = 0

    @property
    def n_queries(self) -> int:
        """Number of queries replayed."""
        return len(self.latencies)

    @property
    def n_failed(self) -> int:
        """Queries that errored (shed, shard down, deadline, ...)."""
        return sum(1 for e in self.errors if e is not None)

    @property
    def n_ok(self) -> int:
        """Queries that returned an answer."""
        return self.n_queries - self.n_failed

    @property
    def goodput(self) -> int:
        """Successful queries that also met the deadline (the SLA view).

        Without a ``deadline`` this is simply :attr:`n_ok`.
        """
        if not self.latencies:
            return 0
        errors = self.errors or (None,) * self.n_queries
        return sum(
            1
            for latency, error in zip(self.latencies, errors)
            if error is None
            and (self.deadline is None or latency <= self.deadline)
        )

    @property
    def qps(self) -> float:
        """Achieved throughput in queries per second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_queries / self.elapsed_seconds

    @property
    def goodput_qps(self) -> float:
        """Deadline-meeting successful queries per second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.goodput / self.elapsed_seconds

    @property
    def admitted_latencies(self) -> Tuple[float, ...]:
        """Latencies of answered queries only (shed/failed excluded) —
        the population whose tail admission control keeps bounded."""
        if not self.errors:
            return self.latencies
        return tuple(
            latency
            for latency, error in zip(self.latencies, self.errors)
            if error is None
        )

    @property
    def mean_latency(self) -> float:
        """Mean per-query latency in seconds."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    def percentile_latency(self, q: float, *, admitted_only: bool = False) -> float:
        """Latency percentile (e.g. ``q=99``); ``admitted_only=True``
        restricts to answered queries (shed requests fail in
        microseconds and would flatter the tail)."""
        population = self.admitted_latencies if admitted_only else self.latencies
        if not population:
            return 0.0
        return float(np.percentile(population, q))


def _supervision_counters(server) -> Tuple[int, int, int]:
    """``(restarts, retries, sheds)`` so far, from the server's ``health()``.

    The pool reports them parent-side (no worker round trip, so a
    chaos run with shards down still answers); a server that is not a
    pool has nothing supervising it and counts zeros.
    """
    if not hasattr(server, "health"):
        return (0, 0, 0)
    health = server.health()
    return (health.restarts, health.retries, health.sheds)


def replay(
    server,
    queries: Sequence[KBTIMQuery],
    *,
    threads: int = 1,
    arrivals: Optional[Sequence[float]] = None,
    deadline: Optional[float] = None,
    chaos=None,
    tolerate_errors: Optional[bool] = None,
) -> ReplayReport:
    """Drive a query server over a workload and measure latency/QPS.

    Parameters
    ----------
    server:
        Anything with a ``query(KBTIMQuery) -> SeedSelection`` method —
        a :class:`~repro.core.server.KBTIMServer`, a
        :class:`~repro.core.process_pool.SupervisedServerPool`, or a
        bare index reader.  With ``threads > 1`` it must accept
        concurrent calls: a server (which serialises them) or a pool,
        never a bare reader, which has one caller at a time.  Against
        the pool the replay threads only marshal requests — the queries
        execute in the pool's worker processes, so closed-loop
        throughput can exceed what one Python process could compute;
        size ``threads`` to at least the pool's worker count to keep
        every shard busy.
    queries:
        The workload, in arrival order.
    threads:
        Closed-loop concurrency: each of ``threads`` workers issues its
        next query as soon as its previous one completes.
    arrivals:
        Optional open-loop schedule: non-decreasing offsets in seconds
        from replay start, one per query (see :func:`poisson_arrivals`).
        Queries are issued no earlier than their offset; with all
        ``threads`` workers busy a due query queues, and that delay is
        charged to its latency.
    deadline:
        Optional SLA threshold in seconds for goodput classification
        (queries answered within it count toward
        :attr:`ReplayReport.goodput`).  Classification only —
        *enforcement* belongs to the server (e.g. the pool's
        ``request_timeout``).
    chaos:
        Optional fault injection: a
        :class:`~repro.core.chaos.ChaosController` already bound to the
        server, or a bare :class:`~repro.core.chaos.FaultPlan` (bound
        here).  Scheduled events fire just before their query ordinal
        is issued, and the fired records land in
        :attr:`ReplayReport.fault_events`.  Implies
        ``tolerate_errors=True`` unless overridden.
    tolerate_errors:
        When true, per-query library failures (shed, shard unavailable,
        deadline exceeded, worker death) are recorded in
        :attr:`ReplayReport.errors` instead of aborting the replay —
        the mode every chaos run wants.  Default: ``True`` iff
        ``chaos`` is given.  Non-library exceptions always propagate.

    Returns
    -------
    A :class:`ReplayReport` with results, per-query latencies, errors,
    fired fault events, supervision counter deltas, and throughput.

    Raises
    ------
    QueryError
        If ``arrivals`` is given with the wrong length or decreasing
        offsets.
    ValueError
        On a non-positive ``threads``.
    """
    threads = check_positive_int("threads", threads)
    queries = list(queries)
    if tolerate_errors is None:
        tolerate_errors = chaos is not None
    if chaos is not None and not hasattr(chaos, "before_query"):
        from repro.core.chaos import ChaosController

        chaos = ChaosController(chaos, server)
    if arrivals is not None:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if len(arrivals) != len(queries):
            raise QueryError(
                f"arrival schedule has {len(arrivals)} offsets for "
                f"{len(queries)} queries"
            )
        if len(arrivals) and np.any(np.diff(arrivals) < 0):
            raise QueryError("arrival offsets must be non-decreasing")
    if not queries:
        return ReplayReport(
            results=(),
            latencies=(),
            elapsed_seconds=0.0,
            threads=threads,
            deadline=deadline,
        )

    results: List = [None] * len(queries)
    latencies = [0.0] * len(queries)
    errors: List[Optional[str]] = [None] * len(queries)
    counters_before = _supervision_counters(server)
    started = time.perf_counter()

    def run_one(pos: int) -> None:
        if chaos is not None:
            chaos.before_query(pos)
        if arrivals is not None:
            due = started + float(arrivals[pos])
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            issued = due  # open loop: charge queueing delay to latency
        else:
            issued = time.perf_counter()
        try:
            results[pos] = server.query(queries[pos])
        except ReproError as exc:
            if not tolerate_errors:
                raise
            errors[pos] = f"{type(exc).__name__}: {exc}"
        latencies[pos] = time.perf_counter() - issued

    if threads == 1:
        for pos in range(len(queries)):
            run_one(pos)
    else:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            futures = [
                executor.submit(run_one, pos) for pos in range(len(queries))
            ]
            for future in futures:
                future.result()
    elapsed = time.perf_counter() - started
    counters_after = _supervision_counters(server)
    return ReplayReport(
        results=tuple(results),
        latencies=tuple(latencies),
        elapsed_seconds=elapsed,
        threads=threads,
        errors=tuple(errors) if tolerate_errors else (),
        fault_events=tuple(getattr(chaos, "fired", ())) if chaos else (),
        deadline=deadline,
        restarts=max(0, counters_after[0] - counters_before[0]),
        retries=max(0, counters_after[1] - counters_before[1]),
        sheds=max(0, counters_after[2] - counters_before[2]),
    )
