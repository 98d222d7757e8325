"""Online serving tier: many queries against one open index, RR or IRR.

The paper's deployment story is an ad platform answering a *stream* of
advertiser queries against one pre-built index — the RR index
(Algorithm 2) or the IRR index (Algorithm 4).  Successive queries share
keywords heavily (popular verticals are queried most), so a serving tier
naturally keeps decoded per-keyword values — an RR keyword's block, an
IRR keyword's ``IP_w`` map — across queries, on top of the page-level
buffer pool.

Two tiers of concurrency live here; the third is the process pool
built on them:

* :class:`KBTIMServer` serves one open
  :class:`~repro.core.catalog.IndexReader` through that protocol only
  (``plan``, ``lookup``, ``query``, ``cache``), so the same code serves
  both indexes; the values live in the reader's
  :class:`~repro.core.catalog.BlockCache` (the server keeps no cache of
  its own).  It is thread-safe: a hot value costs one short lock, and
  the cache's per-key single-flight makes concurrent misses on one
  keyword decode exactly once.
* :meth:`KBTIMServer.query_batch` amortises one *batch* of queries:
  the union of requested keywords is looked up once and every query in
  the batch is then answered from the held values — bit-identical
  answers to sequential :meth:`query` calls at a fraction of the
  load/decode work.
* :class:`~repro.core.process_pool.SupervisedServerPool` replicates
  the server as worker processes over one index file and sends each
  query to the worker owning its primary keyword.  This module defines
  what crosses that boundary: the request vocabulary (:func:`_dispatch`)
  and the telemetry records a pool reports (:class:`ServerSnapshot`,
  :class:`ShardHealth`, :class:`PoolHealth`, :class:`PoolSnapshot`).

Results are identical to the reader's own ``query`` in every mode
(asserted by the tests); only the cost profile changes: a warm RR
keyword costs zero disk reads and zero decode work, a warm IRR keyword
zero decode work (IRR reads are always issued).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.catalog import IndexReader
from repro.core.query import KBTIMQuery, resolve_keyword
from repro.core.results import SeedSelection
from repro.errors import QueryError, ServerError
from repro.storage.iostats import IOStats
from repro.utils.validation import check_positive_int

__all__ = [
    "KBTIMServer",
    "PoolHealth",
    "PoolSnapshot",
    "SHARD_DEGRADED",
    "SHARD_DRAINED",
    "SHARD_READY",
    "SHARD_RESTARTING",
    "SNAPSHOT_SCHEMA",
    "ServerSnapshot",
    "ServerStats",
    "ShardHealth",
    "process_rss_bytes",
]


def process_rss_bytes(pid: int) -> int:
    """Resident-set size of a process in bytes (0 when unmeasurable).

    Reads ``/proc/<pid>/statm`` (Linux; the second field is resident
    pages), so the parent measures a *worker's* RSS without a round
    trip.  On platforms without procfs, falls back to
    ``resource.getrusage`` for the current process and returns 0 for
    others — memory gauges are observability, never correctness, so
    absence degrades to zero rather than raising.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    if pid == os.getpid():
        try:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:
            pass
    return 0


#: Default latency-sample retention.  A long-lived server must not grow
#: one float per query forever, so latencies live in a ring buffer of
#: this many samples; percentiles are computed over the retained window.
_LATENCY_WINDOW = 4096

#: What one server counts about the traffic it served.
_SERVING_COUNTERS = (
    "queries",
    "keyword_hits",
    "keyword_misses",
    "warm_loads",
    "total_seconds",
)
#: What a pool counts parent-side about healing and shedding.
_SUPERVISION_COUNTERS = ("restarts", "retries", "sheds")


@dataclass
class ServerStats:
    """Aggregate serving statistics.

    Latency samples are bounded: only the most recent ``latency_window``
    per-query latencies are retained (a ring buffer sized at
    construction; ``0`` retains nothing), so a long-lived server's
    memory stays constant.  :meth:`percentile_latency` is exact over
    that window; :attr:`mean_latency` stays exact over *all* queries (it
    is derived from the running totals, not the samples).  Cache
    counters distinguish query traffic (``keyword_hits`` /
    ``keyword_misses``) from administrative pre-warming
    (``warm_loads``), so :attr:`hit_ratio` reflects only what real
    queries experienced.

    Counter updates go through the ``record_*`` methods, which take a
    small internal lock — a server answers queries from many threads,
    and a racing ``+=`` would silently drop counts.  Reading the plain
    integer fields stays lock-free.

    Memory is not here: RSS and shared-segment bytes are measured by the
    pool's parent process and live on :class:`PoolHealth` only.
    """

    queries: int = 0
    keyword_hits: int = 0
    keyword_misses: int = 0
    warm_loads: int = 0
    #: Worker restarts (parent-side counter; zero on a worker's own stats).
    restarts: int = 0
    #: Queries transparently retried after a worker restart.
    retries: int = 0
    #: Requests shed by admission control (never dispatched to a worker).
    sheds: int = 0
    total_seconds: float = 0.0
    latency_window: int = _LATENCY_WINDOW
    _latencies: Deque[float] = field(init=False, repr=False)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._latencies = deque(maxlen=max(0, self.latency_window))

    def __getstate__(self) -> dict:
        """Pickle support: counters and samples travel, the lock does not.

        Process-pool workers ship :meth:`snapshot` copies to the parent
        for the merged pool view; an ``RLock`` cannot cross that
        boundary, so the receiving side gets a fresh one.
        """
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def snapshot(self) -> "ServerStats":
        """A detached, picklable copy of the current stats.

        Taken under the counter lock so the copy is a consistent cut;
        the copy does not track this instance afterwards.  This is what
        process-pool workers send to the parent — the live object keeps
        serving its own thread-safe counters.
        """
        return ServerStats.merged((self,))

    @property
    def latencies(self) -> Tuple[float, ...]:
        """The retained latency samples (at most ``latency_window``).

        A read-only copy: mutate via :meth:`record_latency` only (a
        tuple makes ``stats.latencies.append(...)`` callers fail loudly
        instead of mutating a discarded copy).
        """
        with self._lock:
            return tuple(self._latencies)

    def record_latency(self, seconds: float) -> None:
        """Retain one latency sample, dropping the oldest when full."""
        with self._lock:
            self._latencies.append(seconds)

    def record_query(self, seconds: float) -> None:
        """Account one answered query: count, total time, latency sample."""
        with self._lock:
            self.queries += 1
            self.total_seconds += seconds
            self.record_latency(seconds)

    def record_keyword_hit(self) -> None:
        """Count one query-traffic block-cache hit."""
        with self._lock:
            self.keyword_hits += 1

    def record_keyword_miss(self) -> None:
        """Count one query-traffic block-cache miss (a load happened)."""
        with self._lock:
            self.keyword_misses += 1

    def record_warm_load(self) -> None:
        """Count one administrative pre-warming load (never a miss)."""
        with self._lock:
            self.warm_loads += 1

    def record_restart(self) -> None:
        """Count one worker restart."""
        with self._lock:
            self.restarts += 1

    def record_retry(self) -> None:
        """Count one transparent per-query retry (after a restart)."""
        with self._lock:
            self.retries += 1

    def record_shed(self) -> None:
        """Count one request rejected by admission control."""
        with self._lock:
            self.sheds += 1

    @property
    def hit_ratio(self) -> float:
        """Query-traffic cache hit ratio (0 when idle; warm loads excluded)."""
        touched = self.keyword_hits + self.keyword_misses
        return self.keyword_hits / touched if touched else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean per-query latency in seconds (exact over all queries)."""
        return self.total_seconds / self.queries if self.queries else 0.0

    def percentile_latency(self, q: float) -> float:
        """Latency percentile (e.g. ``q=95``) over the retained window."""
        samples = self.latencies
        if not samples:
            return 0.0
        return float(np.percentile(samples, q))

    @classmethod
    def merged(cls, parts: Sequence["ServerStats"]) -> "ServerStats":
        """Aggregate several workers' stats into one pool-level view.

        Counters and totals sum; the merged latency window is the union
        of every worker's retained samples (its ``latency_window`` is
        sized to hold them all), so pool-level percentiles reflect every
        retained sample rather than one worker's.  The result is a
        snapshot — it does not track the workers afterwards.
        """
        out = cls(latency_window=sum(part.latency_window for part in parts))
        for part in parts:
            with part._lock:
                for name in _SERVING_COUNTERS + _SUPERVISION_COUNTERS:
                    setattr(out, name, getattr(out, name) + getattr(part, name))
                out._latencies.extend(part._latencies)
        return out

    def to_dict(self) -> dict:
        """The JSON-ready serving view: counters, hit ratio, latency summary.

        The supervision counters are left out on purpose — in a
        :meth:`PoolSnapshot.to_dict` document they are parent-side
        numbers and :class:`PoolHealth` is their one home.
        """
        out = {name: getattr(self, name) for name in _SERVING_COUNTERS}
        out["hit_ratio"] = self.hit_ratio
        out["mean_latency"] = self.mean_latency
        for q in (50, 95, 99):
            out[f"latency_p{q}"] = self.percentile_latency(q)
        return out


@dataclass(frozen=True)
class ServerSnapshot:
    """What one :class:`KBTIMServer` reports about itself, in one message."""

    stats: ServerStats
    #: The reader's physical I/O counters.
    io: IOStats
    #: Cached keyword names, LRU order (oldest first).
    cached_keywords: Tuple[str, ...]

    def to_dict(self) -> dict:
        """A JSON-ready view."""
        return {
            "stats": self.stats.to_dict(),
            "io": self.io.to_dict(),
            "cached_keywords": list(self.cached_keywords),
        }


# The shard states a pool's ``health()`` reports.

#: The worker is up and its pipe is framed: the shard serves.
SHARD_READY = "ready"
#: The worker is down/poisoned and a restart is pending (backoff window).
SHARD_RESTARTING = "restarting"
#: Restart budget exhausted: fail fast until an operator ``restore()``.
SHARD_DEGRADED = "degraded"
#: Taken out of rotation by ``drain()``; fail fast until ``restore()``.
SHARD_DRAINED = "drained"

#: Version of the :meth:`PoolSnapshot.to_dict` document.
SNAPSHOT_SCHEMA = 3


@dataclass(frozen=True)
class ShardHealth:
    """What the parent knows about one shard without asking its worker."""

    shard: int
    state: str
    alive: bool
    pid: Optional[int]
    #: Resident-set size of the worker process, read from ``/proc``
    #: (0 for a dead or unreadable pid).
    rss_bytes: int
    restarts: int
    #: Query units currently executing on the shard.
    inflight: int
    last_error: Optional[str]


@dataclass(frozen=True)
class PoolHealth:
    """Everything a pool's parent process knows without a worker round trip.

    The one home of memory gauges, pids, liveness and the supervision
    counters; see
    :meth:`~repro.core.process_pool.SupervisedServerPool.health`.
    """

    shards: Tuple[ShardHealth, ...]
    inflight: int
    max_inflight: Optional[int]
    restarts: int
    retries: int
    sheds: int
    #: Summed RSS of the live worker processes.
    rss_bytes: int

    @property
    def available_shards(self) -> int:
        """Shards currently accepting queries (``ready``)."""
        return sum(1 for s in self.shards if s.state == SHARD_READY)

    @property
    def healthy(self) -> bool:
        """Whether every shard is ``ready`` (the ``/healthz`` boolean)."""
        return self.available_shards == len(self.shards)

    def to_dict(self) -> dict:
        """A JSON-ready view (the fields plus the two derived verdicts)."""
        return {
            "healthy": self.healthy,
            "available_shards": self.available_shards,
            **asdict(self),
        }


@dataclass(frozen=True)
class PoolSnapshot:
    """One pool's whole telemetry: :class:`PoolHealth` plus what each
    ready shard's server reported; see
    :meth:`~repro.core.process_pool.SupervisedServerPool.snapshot`."""

    health: PoolHealth
    #: Per-shard :class:`ServerSnapshot`, ``None`` for a shard that was
    #: not ready or did not answer.
    workers: Tuple[Optional[ServerSnapshot], ...]
    #: The answering workers' stats merged with the pool's own
    #: supervision counters.
    stats: ServerStats
    #: The answering workers' physical I/O, summed.
    io: IOStats

    def to_dict(self) -> dict:
        """The versioned JSON-ready document (``repro replay --json``)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "health": self.health.to_dict(),
            "stats": self.stats.to_dict(),
            "io": self.io.to_dict(),
            "workers": [
                None if part is None else part.to_dict() for part in self.workers
            ],
        }


class KBTIMServer:
    """Thread-safe query server over one open index, RR or IRR.

    Parameters
    ----------
    index:
        An open :class:`~repro.core.catalog.IndexReader` — an
        :class:`~repro.core.rr_index.RRIndex` or an
        :class:`~repro.core.irr_index.IRRIndex`.  The server does not
        take ownership; close it yourself (or use the server as a context
        manager, which closes the index on exit).
    cache_keywords:
        Maximum number of keyword values held in memory (LRU).  The
        server has no cache of its own: this re-sizes ``index.cache``,
        the reader's :class:`~repro.core.catalog.BlockCache`, which direct
        ``index.query`` callers share.  Give each server its own reader
        (every pool worker does).

    Raises
    ------
    ValueError
        If ``cache_keywords`` is not a positive int.

    Every query runs the reader's own ``query`` with a lookup that
    counts: ``stats`` counts a hit when ``index.cache`` served a query
    keyword's value from memory and a miss when it had to decode.

    **Thread safety.**  :meth:`query`, :meth:`query_batch`, :meth:`warm`
    and :meth:`evict_all` may be called concurrently; the concurrency
    contract is the cache's (hit: one lock; miss: per-keyword
    single-flight, decode outside the lock).  Seed selections are
    bit-identical to a single-threaded run (both query engines are
    deterministic on identical data) and the ``stats`` counters are
    exact; only per-query *I/O attribution* is best-effort under
    concurrency — ``QueryStats.io`` windows may include a neighbour
    thread's reads, though the totals across all queries stay exact.
    """

    def __init__(self, index: IndexReader, *, cache_keywords: int = 64) -> None:
        self.index = index
        index.cache.resize(check_positive_int("cache_keywords", cache_keywords))
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    def _lookup(self, keyword: str, count: int) -> Tuple[object, bool]:
        """``index.lookup`` for query traffic, counting the hit or miss."""
        value, hit = self.index.lookup(keyword, count)
        if hit:
            self.stats.record_keyword_hit()
        else:
            self.stats.record_keyword_miss()
        return value, hit

    def query(self, query: KBTIMQuery) -> SeedSelection:
        """Answer one query through the reader's cache.

        Parameters
        ----------
        query:
            The ``(Q.T, Q.k)`` pair to answer.

        Returns
        -------
        The same :class:`~repro.core.results.SeedSelection` a direct
        ``index.query`` would produce, with ``stats`` reflecting this
        server's (usually much cheaper) cost profile.

        Raises
        ------
        QueryError
            If ``query.k`` exceeds the index's system parameter ``K``,
            or two keyword refs resolve to the same indexed keyword.
        IndexError_
            If a keyword is not in the index.
        """
        answer = self.index.query(query, self._lookup)
        self.stats.record_query(answer.stats.elapsed_seconds)
        return answer

    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[KBTIMQuery]) -> List[SeedSelection]:
        """Answer a batch of queries with shared keyword loads.

        The batch is planned up front (every query validated before any
        I/O), then the *union* of requested keywords is looked up once
        each, at the largest count any query of the batch needs.  Every
        individual query then runs the reader's ``query`` over the held
        values (an RR query slices its prefixes off them; an IRR query
        still reads its own partitions).

        Parameters
        ----------
        queries:
            The batch, in arrival order.

        Returns
        -------
        One :class:`~repro.core.results.SeedSelection` per query, in
        input order — each bit-identical to what a sequential
        :meth:`query` call would have produced.

        Raises
        ------
        QueryError
            On the first query with ``k`` over the index's ``K`` or a
            duplicate keyword after resolution.
        IndexError_
            On the first unknown keyword.
        Either way no query of the batch has been answered and no I/O
        has been issued — the same exceptions, query by query, as
        :meth:`query`.

        **Accounting.**  Per-query ``QueryStats`` attribute the batch's
        physical work without double counting: a shared keyword
        lookup's I/O (and time) is charged to the *first* query in the
        batch that requested the keyword, so the per-query ``io`` deltas
        sum to the batch's true total.  Cache counters mirror what a
        sequential run against a large-enough cache would record: a
        keyword resident before the batch counts a hit per use; a loaded
        keyword counts one miss (on the charged query) and hits for
        every later use in the batch.

        The batch holds its own references to the values it looked up,
        so a batch touching more keywords than the cache retains is
        still answered from one load per keyword.
        """
        queries = list(queries)
        if not queries:
            return []
        index = self.index
        # Phase 1: validate + plan everything before touching the disk.
        plans = [index.plan(query) for query in queries]

        # Phase 2: union of keywords -> one lookup each, at the largest
        # count; its cost is charged to the first query that asked.
        charge: Dict[str, int] = {}
        need: Dict[str, int] = {}
        for pos, (keywords, counts, _phi) in enumerate(plans):
            for kw in keywords:
                charge.setdefault(kw, pos)
                need[kw] = max(need.get(kw, 0), counts[kw])
        held: Dict[str, object] = {}
        loads: Dict[str, Tuple[bool, IOStats, float]] = {}
        for kw in sorted(charge):
            before = index.stats.snapshot()
            started = time.perf_counter()
            held[kw], hit = index.lookup(kw, need[kw])
            loads[kw] = (hit, index.stats.delta(before), time.perf_counter() - started)

        # Phase 3: each query over the held values, with attribution.
        results: List[SeedSelection] = []
        for pos, query in enumerate(queries):
            answer = index.query(query, lambda kw, _count: (held[kw], True))
            for kw in plans[pos][0]:
                hit, io, seconds = loads[kw]
                if charge[kw] == pos:
                    answer.stats.io.add(io)
                    answer.stats.elapsed_seconds += seconds
                if hit or charge[kw] != pos:
                    self.stats.record_keyword_hit()
                else:
                    self.stats.record_keyword_miss()
            self.stats.record_query(answer.stats.elapsed_seconds)
            results.append(answer)
        return results

    # ------------------------------------------------------------------
    def warm(self, keywords: Iterable) -> None:
        """Pre-load keyword values (e.g. the most popular verticals).

        Parameters
        ----------
        keywords:
            Topic names or ids to load.

        Raises
        ------
        QueryError
            If a keyword name is not in the index (counters untouched).
        IndexError_
            If a topic id is unknown.

        Loads are counted under ``stats.warm_loads``, never as cache
        misses, so pre-warming does not skew ``stats.hit_ratio``.
        """
        for kw in keywords:
            name = resolve_keyword(self.index.topic_names, kw)
            meta = self.index.catalog.get(name)
            if meta is None:
                # Validate before counting: a failed lookup was never
                # served traffic and must not inflate the cache counters.
                raise QueryError(f"keyword {name!r} is not in the index")
            _value, hit = self.index.lookup(name, meta.n_sets)
            if not hit:
                self.stats.record_warm_load()

    def evict_all(self) -> None:
        """Drop every cached value (for memory-pressure handling); the
        next query of each keyword decodes it again."""
        self.index.cache.clear()

    @property
    def cached_keywords(self) -> List[str]:
        """Currently cached keyword names, LRU order (oldest first)."""
        return self.index.cache.keys()

    def snapshot(self) -> ServerSnapshot:
        """This server's whole telemetry in one detached, picklable record:
        a :class:`ServerStats` copy, the reader's I/O counters and the
        cached keywords — the one reply a pool asks a shard for."""
        return ServerSnapshot(
            stats=self.stats.snapshot(),
            io=self.index.stats.snapshot(),
            cached_keywords=tuple(self.cached_keywords),
        )

    def __enter__(self) -> "KBTIMServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.index.close()


def _dispatch(server: KBTIMServer, method: str, payload):
    """Execute one pool request against a shard's server.

    The pool's request vocabulary: a worker process calls this from
    its pipe loop for every ``(method, payload)`` message.
    """
    if method == "query":
        return server.query(payload)
    if method == "query_batch":
        return server.query_batch(payload)
    if method == "warm":
        server.warm(payload)
        return None
    if method == "evict_all":
        server.evict_all()
        return None
    if method == "snapshot":
        return server.snapshot()
    raise ServerError(f"unknown worker request {method!r}")
