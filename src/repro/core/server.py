"""Online serving tier: many queries against one open index, RR or IRR.

The paper's deployment story is an ad platform answering a *stream* of
advertiser queries against one pre-built index — the RR index
(Algorithm 2) or the IRR index (Algorithm 4).  Successive queries share
keywords heavily (popular verticals are queried most), so a serving tier
naturally keeps decoded per-keyword values — an RR keyword's block, an
IRR keyword's ``IP_w`` map and the partitions decoded so far — across
queries, on top of the page-level buffer pool.

Two ways to serve live here; the third is the process pool built on
them:

* :class:`KBTIMServer` serves one open
  :class:`~repro.core.catalog.IndexReader` through that protocol only
  (``plan``, ``lookup``, ``query``, ``cache``), so the same code serves
  both indexes; the values live in the reader's one
  :class:`~repro.core.catalog.BlockCache` (the server keeps no cache of
  its own), so the server's bound and eviction cover everything the
  reader decoded.  One lock serialises its callers, so the reader under it
  serves one query at a time and each query's I/O window holds exactly
  its own reads.
* :meth:`KBTIMServer.query_batch` amortises one *batch* of queries:
  each keyword of the batch is looked up once, on its first use, and
  held for the rest of the batch — bit-identical answers to sequential
  :meth:`query` calls at a fraction of the load/decode work.
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
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.catalog import IndexReader, Lookup
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
    trip.  Without procfs it returns 0 — memory gauges are
    observability, never correctness, so absence degrades to zero
    rather than raising.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
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


@dataclass
class ServerStats:
    """Aggregate serving statistics.

    Latency samples are bounded: only the most recent ``latency_window``
    per-query latencies are retained (a ring buffer sized at
    construction; ``0`` retains nothing), so a long-lived server's
    memory stays constant.  :meth:`percentile_latency` is exact over
    that window; :attr:`mean_latency` stays exact over *all* queries (it
    is derived from the running totals, not the samples).  Cache
    counters count load units — an RR keyword block, an IRR partition
    segment — and distinguish query traffic (``keyword_hits`` /
    ``keyword_misses``, the answers' ``cache_hits`` / ``cache_misses``
    summed) from administrative pre-warming (``warm_loads``, the units
    :meth:`KBTIMServer.warm` decoded), so :attr:`hit_ratio` reflects only
    what real queries experienced.

    The stats take no lock: a server updates its own under its lock.

    What a pool's parent counts is not here: restarts, retries, sheds
    and RSS live on :class:`PoolHealth` only.
    """

    queries: int = 0
    keyword_hits: int = 0
    keyword_misses: int = 0
    warm_loads: int = 0
    total_seconds: float = 0.0
    latency_window: int = _LATENCY_WINDOW
    _latencies: Deque[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._latencies = deque(maxlen=max(0, self.latency_window))

    def snapshot(self) -> "ServerStats":
        """A detached, picklable copy of the current stats.

        The copy does not track this instance afterwards.  This is what
        process-pool workers send to the parent.
        """
        return ServerStats.merged((self,))

    @property
    def latencies(self) -> Tuple[float, ...]:
        """The retained latency samples (at most ``latency_window``).

        A read-only copy: mutate via :meth:`record_latency` only (a
        tuple makes ``stats.latencies.append(...)`` callers fail loudly
        instead of mutating a discarded copy).
        """
        return tuple(self._latencies)

    def record_latency(self, seconds: float) -> None:
        """Retain one latency sample, dropping the oldest when full."""
        self._latencies.append(seconds)

    def record_query(self, seconds: float) -> None:
        """Account one answered query: count, total time, latency sample."""
        self.queries += 1
        self.total_seconds += seconds
        self.record_latency(seconds)

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
            for name in _SERVING_COUNTERS:
                setattr(out, name, getattr(out, name) + getattr(part, name))
            out._latencies.extend(part._latencies)
        return out

    def to_dict(self) -> dict:
        """The JSON-ready serving view: counters, hit ratio, latency summary."""
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
SNAPSHOT_SCHEMA = 4


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
    #: The shards' ``restarts``, summed.
    restarts: int
    #: Queries transparently retried after a worker death.
    retries: int
    #: Requests shed by admission control (never dispatched to a worker).
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
    #: The answering workers' stats, merged.
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
    """Query server over one open index, RR or IRR, one query at a time.

    Parameters
    ----------
    index:
        An open :class:`~repro.core.catalog.IndexReader` — an
        :class:`~repro.core.rr_index.RRIndex` or an
        :class:`~repro.core.irr_index.IRRIndex`.  The server does not
        take ownership; close it yourself (or use the server as a context
        manager, which closes the index on exit).
    cache_keywords:
        Maximum number of keyword values held in memory (LRU): an RR
        keyword's block, or an IRR keyword's ``IP_w`` with every
        partition decoded of it.  The server has no cache of its own:
        this re-sizes ``index.cache``, the reader's one
        :class:`~repro.core.catalog.BlockCache`, which direct
        ``index.query`` callers share.  Give each server its own reader
        (every pool worker does).

    Raises
    ------
    ValueError
        If ``cache_keywords`` is not a positive int.

    Every query runs the reader's own ``query``; ``stats`` sums what each
    answer counted per load unit (an RR keyword block, an IRR partition
    segment): a hit when the decode was spared, a miss when it was paid.

    **Thread safety.**  Any number of threads may call the server:
    :meth:`query`, :meth:`query_batch`, :meth:`warm`, :meth:`evict_all`,
    :meth:`snapshot` and :attr:`cached_keywords` hold its one lock, so
    the reader, its cache, its pager and its ``IOStats`` see one caller
    at a time.  Every answer, ``stats`` counter and per-query
    ``QueryStats.io`` window is exactly what a single-threaded run of
    the same calls records; a second thread adds no throughput on one
    core (warm serving is CPU-bound under the GIL), which is what the
    process pool is for.  Do not call the reader directly while the
    server serves.
    """

    def __init__(self, index: IndexReader, *, cache_keywords: int = 64) -> None:
        self.index = index
        index.cache.resize(check_positive_int("cache_keywords", cache_keywords))
        self.stats = ServerStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _answer(
        self, query: KBTIMQuery, lookup: Optional[Lookup] = None
    ) -> SeedSelection:
        """The reader's ``query`` over ``lookup``, counted as one query
        with its load units' hits and misses; the body :meth:`query` and
        :meth:`query_batch` share."""
        answer = self.index.query(query, lookup)
        self.stats.record_query(answer.stats.elapsed_seconds)
        self.stats.keyword_hits += answer.stats.cache_hits
        self.stats.keyword_misses += answer.stats.cache_misses
        return answer

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
        with self._lock:
            return self._answer(query)

    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[KBTIMQuery]) -> List[SeedSelection]:
        """Answer a batch of queries with shared keyword loads.

        The batch is planned up front (every query validated before any
        I/O), then each query runs the reader's ``query`` in turn.  A
        keyword is looked up once, on its first use, at the largest count
        any query of the batch needs, and held for the rest of the batch
        (an RR query slices its prefixes off the held value; an IRR query
        starts from it and still reads its own later partitions, decoding
        only those the held value does not hold yet).

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

        **Accounting.**  A batch counts what the same sequential
        :meth:`query` calls would count against a cache that keeps every
        keyword of the batch: the first use of a keyword is the reader's
        lookup (a hit or a miss), inside that query's own ``QueryStats``
        window, so the load's I/O and time are the first requester's;
        every later use is a held value, a hit; an IRR partition counts
        a hit when the held value's list holds it already.  A batch that
        fails part-way has counted the queries it answered.

        The batch holds its own references to the values it looked up,
        so a batch touching more keywords than the cache retains is
        still answered from one load per keyword.
        """
        queries = list(queries)
        with self._lock:
            # Plan everything before touching the disk; each keyword is
            # looked up once, at the largest count any query needs.
            need: Dict[str, int] = {}
            for keywords, counts, _phi in map(self.index.plan, queries):
                for kw in keywords:
                    need[kw] = max(need.get(kw, 0), counts[kw])
            held: Dict[str, object] = {}

            def lookup(kw: str, _count: int) -> Tuple[object, bool]:
                if kw in held:
                    return held[kw], True
                held[kw], hit = self.index.lookup(kw, need[kw])
                return held[kw], hit

            return [self._answer(query, lookup) for query in queries]

    # ------------------------------------------------------------------
    def warm(self, keywords: Iterable) -> None:
        """Pre-load every unit of some keywords (e.g. the most popular
        verticals): an RR keyword's block, or an IRR keyword's partition
        0 and every later partition, each read through the pager — so a
        later query of warmed keywords decodes nothing while they stay
        cached.

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

        The units decoded are counted under ``stats.warm_loads``, never
        as cache misses, so pre-warming does not skew ``stats.hit_ratio``.
        """
        with self._lock:
            for kw in keywords:
                name = resolve_keyword(self.index.topic_names, kw)
                if name not in self.index.catalog:
                    # Validate before counting: a failed lookup was never
                    # served traffic and must not inflate the cache counters.
                    raise QueryError(f"keyword {name!r} is not in the index")
                self.stats.warm_loads += self.index.warm(name)

    def evict_all(self) -> None:
        """Drop every cached value (for memory-pressure handling), which
        is all the reader decoded; the next query of each keyword decodes
        it again."""
        with self._lock:
            self.index.cache.clear()

    @property
    def cached_keywords(self) -> List[str]:
        """Currently cached keyword names, LRU order (oldest first)."""
        with self._lock:
            return self.index.cache.keys()

    def snapshot(self) -> ServerSnapshot:
        """This server's whole telemetry in one detached, picklable record:
        a :class:`ServerStats` copy, the reader's I/O counters and the
        cached keywords — the one reply a pool asks a shard for."""
        with self._lock:
            return ServerSnapshot(
                stats=self.stats.snapshot(),
                io=self.index.stats.snapshot(),
                cached_keywords=tuple(self.index.cache.keys()),
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
