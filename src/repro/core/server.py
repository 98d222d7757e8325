"""Online serving tier: many queries against one open RR index.

The paper's deployment story is an ad platform answering a *stream* of
advertiser queries against one pre-built index.  Successive queries share
keywords heavily (popular verticals are queried most), so a serving tier
naturally keeps decoded per-keyword blocks — the RR sets and inverted
lists of a keyword — across queries, on top of the page-level buffer
pool.

Three tiers of concurrency are layered here:

* :class:`KBTIMServer` serves one open
  :class:`~repro.core.rr_index.RRIndex` and executes Algorithm 2
  against full keyword blocks held in the reader's
  :class:`~repro.core.rr_index.BlockCache` (the server keeps no cache
  of its own).  It is thread-safe: a hot block costs one short lock,
  and the cache's per-keyword single-flight makes concurrent misses on
  one keyword decode exactly once.
* :meth:`KBTIMServer.query_batch` amortises one *batch* of queries:
  the union of requested keywords is fetched once and every query in
  the batch is then served by pure array slicing — bit-identical
  answers to sequential :meth:`query` calls at a fraction of the
  load/decode work.
* :class:`ServerPool` shards keywords across N servers over one index
  file behind a pluggable dispatcher (``repro.core.dispatch``: static
  crc32 on the primary keyword, or load-aware rendezvous hashing with
  hot-keyword replication), so concurrent traffic spreads over
  independent caches while sharing one buffer pool.  Its request path
  is :class:`_ShardedPool`, the one pool core the process and
  supervised pools run on too (two shard executors, one policy).

Results are identical to :meth:`RRIndex.query` in every mode (asserted
by the tests); only the cost profile changes: a warm keyword costs zero
disk reads and zero decode work.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dispatch import Dispatcher, make_dispatcher, shard_of_keyword
from repro.core.query import KBTIMQuery, KeywordRef, resolve_keyword
from repro.core.results import SeedSelection
from repro.core.rr_index import KeywordCoverageCSR, RRIndex, select_seeds
from repro.errors import DeadlineExceededError, QueryError, ServerError
from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE, BufferPool
from repro.utils.validation import check_positive_int

__all__ = [
    "KBTIMServer",
    "PoolHealth",
    "PoolSnapshot",
    "SHARD_DOWN",
    "SHARD_READY",
    "SNAPSHOT_SCHEMA",
    "ServerPool",
    "ServerSnapshot",
    "ServerStats",
    "ShardHealth",
    "process_rss_bytes",
    "shard_of_keyword",
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


def _sharded_batch(queries, shard_of, run_subbatch, concurrent: bool):
    """Split a batch by shard, run each sub-batch, reassemble in order.

    The dispatch loop behind every pool's ``query_batch`` (called from
    :meth:`_ShardedPool.query_batch` only).

    ``shard_of`` maps a query to its shard; ``run_subbatch(shard,
    sub_queries)`` answers one shard's queries in order.  With
    ``concurrent=True`` populated shards run on one thread each; a
    failing sub-batch propagates its exception (first submitted future
    wins), and other shards' sub-batches may still have completed.
    """
    queries = list(queries)
    if not queries:
        return []
    by_shard: Dict[int, List[int]] = {}
    for pos, query in enumerate(queries):
        by_shard.setdefault(shard_of(query), []).append(pos)
    results: List[Optional[SeedSelection]] = [None] * len(queries)

    def run_shard(shard: int, positions: List[int]) -> None:
        answers = run_subbatch(shard, [queries[pos] for pos in positions])
        for pos, answer in zip(positions, answers):
            results[pos] = answer

    if concurrent and len(by_shard) > 1:
        with ThreadPoolExecutor(max_workers=len(by_shard)) as executor:
            futures = [
                executor.submit(run_shard, shard, positions)
                for shard, positions in by_shard.items()
            ]
            for future in futures:
                future.result()
    else:
        for shard, positions in by_shard.items():
            run_shard(shard, positions)
    return results


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


#: Shard states every pool's :meth:`_ShardedPool.health` can report
#: (supervision adds ``restarting`` / ``degraded`` / ``drained``).
SHARD_READY = "ready"
#: The shard's executor cannot answer (dead, poisoned or shut down) and
#: nothing will restart it.
SHARD_DOWN = "down"

#: Version of the :meth:`PoolSnapshot.to_dict` document.
SNAPSHOT_SCHEMA = 1


@dataclass(frozen=True)
class ShardHealth:
    """What the parent knows about one shard without asking its worker."""

    shard: int
    state: str
    alive: bool
    pid: Optional[int]
    #: Resident-set size of the hosting process, read from ``/proc``
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
    counters; see :meth:`_ShardedPool.health`.
    """

    shards: Tuple[ShardHealth, ...]
    inflight: int
    max_inflight: Optional[int]
    restarts: int
    retries: int
    sheds: int
    #: Summed RSS of the hosting processes, each distinct pid counted
    #: once (a thread pool's shards all live in one process).
    rss_bytes: int
    #: Bytes resident in the machine-wide shared block cache (counted
    #: once — the segments are shared, not per worker); 0 when disabled.
    shm_bytes: int

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
    ready shard's server reported; see :meth:`_ShardedPool.snapshot`."""

    health: PoolHealth
    #: Per-shard :class:`ServerSnapshot`, ``None`` for a shard that was
    #: not ready or did not answer.
    workers: Tuple[Optional[ServerSnapshot], ...]
    #: The answering workers' stats merged with the pool's own
    #: supervision counters.
    stats: ServerStats
    #: The answering workers' physical I/O, summed.
    io: IOStats
    #: The dispatcher's load gauges (empty for static policies).
    dispatch: Dict[str, tuple]

    def to_dict(self) -> dict:
        """The versioned JSON-ready document (``repro replay --json``)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "health": self.health.to_dict(),
            "stats": self.stats.to_dict(),
            "io": self.io.to_dict(),
            "dispatch": self.dispatch,
            "workers": [
                None if part is None else part.to_dict() for part in self.workers
            ],
        }


class KBTIMServer:
    """Thread-safe query server over one open RR index.

    Parameters
    ----------
    index:
        An open :class:`~repro.core.rr_index.RRIndex`.  The server does
        not take ownership; close it yourself (or use the server as a
        context manager, which closes the index on exit).
    cache_keywords:
        Maximum number of keyword blocks held in memory (LRU).  The
        server has no cache of its own: this re-sizes ``index.cache``,
        the reader's one :class:`~repro.core.rr_index.BlockCache`, which
        direct ``index.query`` callers share.  Give each server its own
        reader (every pool does).

    Raises
    ------
    ValueError
        If ``cache_keywords`` is not a positive int.

    The server always asks the cache for a keyword's *full* block
    (``n_sets``), so one resident entry serves every query that touches
    the keyword by slicing; ``stats`` counts a hit when the cache served
    the block from memory and a miss when it had to go to shared memory
    or disk.

    **Thread safety.**  :meth:`query`, :meth:`query_batch`, :meth:`warm`
    and :meth:`evict_all` may be called concurrently; the concurrency
    contract is the cache's (hit: one lock; miss: per-keyword
    single-flight, decode outside the lock).  Seed selections are
    bit-identical to a single-threaded run (greedy coverage is
    deterministic on identical blocks) and the ``stats`` counters are
    exact; only per-query *I/O attribution* is best-effort under
    concurrency — ``QueryStats.io`` windows may include a neighbour
    thread's reads, though the totals across all queries stay exact.
    """

    def __init__(self, index: RRIndex, *, cache_keywords: int = 64) -> None:
        self.index = index
        index.cache.resize(check_positive_int("cache_keywords", cache_keywords))
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    def _fetch(self, keyword: str) -> Tuple[KeywordCoverageCSR, bool]:
        """``(full block, hit)`` for one keyword name, via the cache."""
        meta = self.index.catalog.get(keyword)
        if meta is None:
            # Validate before counting: a failed lookup was never served
            # traffic and must not inflate the cache counters.
            raise QueryError(f"keyword {keyword!r} is not in the index")
        return self.index.cache.get(keyword, meta.n_sets, self.index.decode_block)

    def _block(self, keyword: str) -> KeywordCoverageCSR:
        """Fetch one keyword's block for query traffic, counting it."""
        block, hit = self._fetch(keyword)
        if hit:
            self.stats.record_keyword_hit()
        else:
            self.stats.record_keyword_miss()
        return block

    def query(self, query: KBTIMQuery) -> SeedSelection:
        """Answer one query from cached blocks (Algorithm 2 semantics).

        Parameters
        ----------
        query:
            The ``(Q.T, Q.k)`` pair to answer.

        Returns
        -------
        The same :class:`~repro.core.results.SeedSelection` a direct
        :meth:`RRIndex.query` would produce, with ``stats`` reflecting
        this server's (usually much cheaper) cost profile.

        Raises
        ------
        QueryError
            If ``query.k`` exceeds the index's system parameter ``K``,
            or two keyword refs resolve to the same indexed keyword.
        IndexError_
            If a keyword is not in the index.
        """
        index = self.index
        started = time.perf_counter()
        before = index.stats.snapshot()
        keywords, counts, phi_q = index.plan(query)
        answer = select_seeds(
            index.n_vertices,
            keywords,
            counts,
            query.k,
            phi_q,
            self._block,
            started=started,
            io=lambda: index.stats.delta(before),
        )
        self.stats.record_query(answer.stats.elapsed_seconds)
        return answer

    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[KBTIMQuery]) -> List[SeedSelection]:
        """Answer a batch of queries with shared keyword loads.

        The batch is planned up front (every query validated before any
        I/O), then the *union* of requested keywords is fetched from the
        cache — each keyword exactly once.  Every individual query is
        then served by pure array slicing
        (:meth:`KeywordCoverageCSR.active_part`) off the shared block,
        followed by its own merge + greedy pass.

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
        physical work without double counting: a shared keyword load's
        I/O (and load time) is charged to the *first* query in the batch
        that requested the keyword, so the per-query ``io`` deltas sum
        to the batch's true total.  Cache counters mirror what a
        sequential run against a large-enough cache would record: a
        keyword resident before the batch counts a hit per use; a loaded
        keyword counts one miss (on the charged query) and hits for
        every later use in the batch.

        The batch holds its own references to the blocks it fetched, so
        a batch touching more keywords than the cache retains is still
        answered from one load per keyword.
        """
        queries = list(queries)
        if not queries:
            return []
        index = self.index
        # Phase 1: validate + plan everything before touching the disk.
        plans = [(query, *index.plan(query)) for query in queries]

        # Phase 2: union of keywords -> one fetch each; a load is paid by
        # the first query that asked for the keyword.
        charge: Dict[str, int] = {}
        for pos, (_query, keywords, _counts, _phi) in enumerate(plans):
            for kw in keywords:
                charge.setdefault(kw, pos)
        blocks: Dict[str, KeywordCoverageCSR] = {}
        load_io: Dict[str, IOStats] = {}
        load_seconds: Dict[str, float] = {}
        for kw in sorted(charge):
            before = index.stats.snapshot()
            load_started = time.perf_counter()
            blocks[kw], hit = self._fetch(kw)
            if not hit:
                load_seconds[kw] = time.perf_counter() - load_started
                load_io[kw] = index.stats.delta(before)

        # Phase 3: per-query slicing + merge + greedy, with attribution.
        results: List[SeedSelection] = []
        for pos, (query, keywords, counts, phi_q) in enumerate(plans):
            io = IOStats()
            charged_seconds = 0.0
            for kw in keywords:
                if kw in load_io and charge[kw] == pos:
                    self.stats.record_keyword_miss()
                    io.add(load_io[kw])
                    charged_seconds += load_seconds[kw]
                else:
                    self.stats.record_keyword_hit()
            answer = select_seeds(
                index.n_vertices,
                keywords,
                counts,
                query.k,
                phi_q,
                blocks.__getitem__,
                started=time.perf_counter() - charged_seconds,
                io=lambda: io,
            )
            self.stats.record_query(answer.stats.elapsed_seconds)
            results.append(answer)
        return results

    # ------------------------------------------------------------------
    def warm(self, keywords: Iterable) -> None:
        """Pre-load keyword blocks (e.g. the most popular verticals).

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
            _block, hit = self._fetch(name)
            if not hit:
                self.stats.record_warm_load()

    def evict_all(self) -> None:
        """Drop every cached block (for memory-pressure handling); the
        next query of each keyword re-reads it."""
        self.index.cache.clear()

    @property
    def cached_keywords(self) -> List[str]:
        """Currently cached keyword names, LRU order (oldest first)."""
        return list(self.index.cache.keywords())

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

    The request vocabulary every shard executor speaks — the in-thread
    executor calls this directly, a worker process calls it from its
    pipe loop — so a method added here exists on every pool kind.
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


class _ThreadShard:
    """In-thread shard executor: the request protocol on a local server.

    Like the process pool's pipe-backed ``_WorkerHandle`` it exposes
    ``request`` / ``shutdown`` / ``pid`` / ``alive`` / ``down`` — all
    the pool core needs.
    """

    #: A thread shard lives and dies with the hosting process.
    alive = True
    down = False

    def __init__(self, server: KBTIMServer) -> None:
        self.server = server
        self.pid = os.getpid()

    def request(self, method: str, payload=None, *, timeout: Optional[float] = None):
        """Run one request inline (an in-thread call cannot be timed out)."""
        return _dispatch(self.server, method, payload)

    def shutdown(self) -> None:
        """Close the server's index reader (the pool owns it)."""
        self.server.index.close()


class _ShardRecord:
    """Parent-side bookkeeping for one shard: what :meth:`_ShardedPool.health`
    reports beyond the executor's own pid and liveness."""

    __slots__ = ("lock", "inflight", "restarts", "last_error")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight = 0
        self.restarts = 0
        self.last_error: Optional[str] = None


class _ShardedPool:
    """The one request path shared by every serving pool.

    A pool is this core plus a list of shard executors
    (``self._workers``: :class:`_ThreadShard` or the process pool's
    ``_WorkerHandle``) and the catalog's topic-id map
    (``self._topic_names``), both supplied by the subclass constructor.
    Everything a request does — resolve, route, time, call the shard,
    split a batch, fan out an admin request, report :meth:`health` and
    :meth:`snapshot` — happens here exactly once; supervision overrides
    :meth:`_call_shard`, :meth:`_candidates` and :meth:`_shard_state`
    instead of wrapping a second pool.
    """

    #: How the closed-pool error names this pool.
    _kind = "server pool"
    #: The per-shard parent-side record (supervision extends it).
    _shard_record = _ShardRecord
    #: Admission budget reported by :meth:`health`; only supervision sets one.
    max_inflight: Optional[int] = None

    def __init__(
        self,
        n_workers: int,
        dispatch: "str | Dispatcher",
        request_timeout: Optional[float] = None,
    ) -> None:
        self.n_workers = check_positive_int("n_workers", n_workers)
        self.dispatcher = make_dispatcher(dispatch, self.n_workers)
        self.request_timeout = request_timeout
        self._shards = [self._shard_record() for _ in range(self.n_workers)]
        #: Parent-side restarts / retries / sheds, merged into :attr:`stats`.
        self._supervision = ServerStats(latency_window=0)
        self._shm_cache = None  # set by pools that share decoded blocks
        self._closed = False

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _resolved_names(self, query: KBTIMQuery) -> List[str]:
        """The query's keyword refs resolved to names, for dispatch.

        Resolution only (an unknown *name* dispatches to some shard,
        whose server then raises the reader's usual ``IndexError_``):
        full validation (duplicates, budget) stays with the serving
        worker, so it runs once per query.
        """
        return [resolve_keyword(self._topic_names, kw) for kw in query.keywords]

    def _candidates(self) -> Optional[List[int]]:
        """Shards eligible for dispatch; ``None`` means every shard."""
        return None

    def shard_of(self, query: KBTIMQuery) -> int:
        """The worker this query would dispatch to right now.

        A side-effect-free peek at the pool's
        :class:`~repro.core.dispatch.Dispatcher` — it never records the
        decision, so asking does not steer subsequent traffic.  Under
        the static ``"crc32"`` policy the answer is the crc32 hash of
        the query's primary keyword; under ``"rendezvous"`` it reflects
        the dispatcher's current load/hot-set state.  Every pool kind
        maps a query identically given the same policy and state.

        Raises
        ------
        IndexError_
            If a topic-id keyword ref is not in the index.
        """
        return self.dispatcher.peek(self._resolved_names(query), self._candidates())

    def _route(self, query: KBTIMQuery) -> int:
        """Choose and *record* the serving shard for one query."""
        return self.dispatcher.route(self._resolved_names(query), self._candidates())

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def _deadline(self, timeout: Optional[float]) -> Optional[float]:
        """Absolute monotonic deadline for one request (``None`` = unbounded);
        ``timeout`` overrides the pool's ``request_timeout`` for one call."""
        budget = timeout if timeout is not None else self.request_timeout
        return None if budget is None else time.monotonic() + budget

    def _call_shard(
        self,
        shard: int,
        method: str,
        payload=None,
        *,
        deadline: Optional[float] = None,
        units: int = 1,
    ):
        """One timed round trip to a shard's executor.

        ``units`` is the request's weight against the dispatcher's
        in-flight/latency gauges (``len(batch)`` for a sub-batch, ``0``
        for admin fan-outs, which must not skew serving-load signals).
        The executor's timeout is what is left of ``deadline``; one
        already spent fails before anything is sent, so a healthy worker
        is never poisoned by a request that could not be answered in time.
        """
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceededError(
                f"deadline exhausted before dispatch to shard {shard} "
                "(spent on queueing/restarts)"
            )
        record = self._shards[shard]
        with record.lock:
            record.inflight += units
        if units:
            self.dispatcher.begin(shard, units=units)
        started = time.perf_counter()
        try:
            return self._workers[shard].request(method, payload, timeout=remaining)
        except ServerError as exc:
            record.last_error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            with record.lock:
                record.inflight -= units
            if units:
                self.dispatcher.complete(
                    shard, time.perf_counter() - started, units=units
                )

    def query(
        self, query: KBTIMQuery, *, timeout: Optional[float] = None
    ) -> SeedSelection:
        """Answer one query on its shard's worker (Algorithm 2 semantics).

        Same parameters, return value and exceptions as
        :meth:`KBTIMServer.query`.  ``timeout`` overrides the pool's
        ``request_timeout`` for this call.

        Raises
        ------
        ServerError
            If the pool is closed, or the owning worker process has
            died (process pools).
        DeadlineExceededError
            If the deadline passed before an answer arrived (pools with
            a ``request_timeout``).
        """
        self._check_open()
        shard = self._route(query)
        return self._call_shard(
            shard, "query", query, deadline=self._deadline(timeout)
        )

    def query_batch(
        self,
        queries: Sequence[KBTIMQuery],
        *,
        concurrent: bool = True,
        timeout: Optional[float] = None,
    ) -> List[SeedSelection]:
        """Answer a batch, sharded and (optionally) in parallel.

        The batch is split by shard, each populated shard's sub-batch
        runs through its worker's :meth:`KBTIMServer.query_batch` (one
        shared load per keyword at the maximum requested prefix), and
        results return in input order.  With ``concurrent=True`` the
        sub-batches are issued on one thread per populated shard, so on
        a process pool they execute on as many cores.  The whole batch
        shares one deadline.

        Raises
        ------
        QueryError
            If any query is invalid.  Validation happens during each
            sub-batch's planning phase, before that shard touches disk;
            other shards' sub-batches may still have been answered.
        IndexError_
            On the first unknown keyword.
        ServerError
            If the pool is closed or a serving worker died mid-batch.
        """
        self._check_open()
        deadline = self._deadline(timeout)
        return _sharded_batch(
            queries,
            self._route,
            lambda shard, sub: self._call_shard(
                shard, "query_batch", sub, deadline=deadline, units=len(sub)
            ),
            concurrent,
        )

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def warm(self, keywords: Iterable[KeywordRef]) -> None:
        """Pre-load each keyword on every worker its traffic can land on.

        Routed through the dispatcher's
        :meth:`~repro.core.dispatch.Dispatcher.homes_of_name` over the
        currently eligible shards, so a keyword is warmed exactly where
        queries for it will dispatch — one shard under ``"crc32"``, the
        full replica set for a hot keyword under ``"rendezvous"``.
        Grouped fan-out: one request per populated shard, counted under
        each worker's ``warm_loads``.  A failed shard does not abort the
        fan-out: every surviving shard is still warmed, and the failure
        surfaces afterwards as one :class:`~repro.errors.ServerError`
        naming the failed shard(s).

        Raises
        ------
        QueryError
            If a keyword name is not in the index.
        IndexError_
            If a topic id is unknown.
        ServerError
            If the pool is closed, or any owning shard failed (raised
            after the surviving shards were warmed).
        """
        self._check_open()
        candidates = self._candidates()
        by_shard: Dict[int, List[str]] = {}
        for kw in keywords:
            name = resolve_keyword(self._topic_names, kw)
            for shard in self.dispatcher.homes_of_name(name, candidates):
                by_shard.setdefault(shard, []).append(name)
        self._fanout(
            [(shard, "warm", names) for shard, names in sorted(by_shard.items())]
        )

    def evict_all(self) -> None:
        """Drop every worker's cached blocks.

        Like :meth:`warm`, a failed shard does not stop the fan-out:
        every surviving worker's caches are dropped first, then one
        :class:`~repro.errors.ServerError` naming the failed shard(s)
        is raised.
        """
        self._check_open()
        self._fanout([(shard, "evict_all", None) for shard in range(self.n_workers)])

    def _fanout(self, requests: Sequence[tuple]) -> None:
        """Issue one admin request per shard, surviving per-shard failures.

        Every shard is attempted; query-level errors (``QueryError``,
        ``IndexError_``) propagate immediately (they mean the *request*
        was wrong, so later shards would fail identically), while
        transport failures are collected and re-raised at the end as a
        single :class:`ServerError` naming each failed shard — so one
        dead worker cannot stop healthy shards from being administered.
        """
        failures: List[tuple] = []
        for shard, method, payload in requests:
            try:
                self._call_shard(
                    shard, method, payload, deadline=self._deadline(None), units=0
                )
            except ServerError as exc:
                failures.append((shard, exc))
        if failures:
            if len(failures) == 1:
                raise failures[0][1]
            detail = "; ".join(f"shard {shard}: {exc}" for shard, exc in failures)
            raise ServerError(
                f"{len(failures)} shards failed during fan-out — {detail}"
            )

    # ------------------------------------------------------------------
    # observability: health() is parent-side, snapshot() asks the shards
    # ------------------------------------------------------------------
    def _shard_state(self, shard: int) -> str:
        """One shard's state from what the pool observes (record lock held)."""
        return SHARD_DOWN if self._workers[shard].down else SHARD_READY

    def health(self) -> PoolHealth:
        """Everything the parent knows, without a worker round trip.

        Per shard: state, liveness, pid, RSS read from ``/proc``,
        restarts, in-flight units and the last transport error; for the
        pool: the supervision counters, the admission budget, the shared
        block cache's bytes and the total RSS with each hosting process
        counted once.  Never waits on a shard, so it stays cheap and
        safe to poll from a health endpoint while shards are busy, hung
        or dead.

        Raises
        ------
        ServerError
            If the pool is closed.
        """
        self._check_open()
        rss: Dict[int, int] = {}
        shards = []
        for shard, record in enumerate(self._shards):
            with record.lock:
                worker = self._workers[shard]
                alive = worker.alive
                if alive and worker.pid not in rss:
                    rss[worker.pid] = process_rss_bytes(worker.pid)
                shards.append(
                    ShardHealth(
                        shard=shard,
                        state=self._shard_state(shard),
                        alive=alive,
                        pid=worker.pid,
                        rss_bytes=rss[worker.pid] if alive else 0,
                        restarts=record.restarts,
                        inflight=record.inflight,
                        last_error=record.last_error,
                    )
                )
        cache = self._shm_cache
        return PoolHealth(
            shards=tuple(shards),
            inflight=sum(shard.inflight for shard in shards),
            max_inflight=self.max_inflight,
            restarts=self._supervision.restarts,
            retries=self._supervision.retries,
            sheds=self._supervision.sheds,
            rss_bytes=sum(rss.values()),
            shm_bytes=cache.shared_bytes() if cache is not None else 0,
        )

    def snapshot(self) -> PoolSnapshot:
        """:meth:`health` plus one ``"snapshot"`` round trip per ready shard.

        Each ready shard answers with its server's
        :class:`ServerSnapshot` (bounded by ``request_timeout``); a
        shard that is not ready, or fails to answer, is a ``None`` hole
        — its counters died with it — and the merged views cover the
        shards that answered.

        Raises
        ------
        ServerError
            If the pool is closed.
        """
        health = self.health()
        workers: List[Optional[ServerSnapshot]] = []
        for shard in health.shards:
            part = None
            if shard.state == SHARD_READY:
                # Deliberately not _call_shard: a read must neither move
                # the dispatcher's load signals nor restart anything.
                try:
                    part = self._workers[shard.shard].request(
                        "snapshot", timeout=self.request_timeout
                    )
                except ServerError:
                    pass
            workers.append(part)
        answered = [part for part in workers if part is not None]
        io = IOStats()
        for part in answered:
            io.add(part.io)
        return PoolSnapshot(
            health=health,
            workers=tuple(workers),
            stats=ServerStats.merged(
                [part.stats for part in answered] + [self._supervision]
            ),
            io=io,
            dispatch=self.dispatcher.load_snapshot(),
        )

    @property
    def stats(self) -> ServerStats:
        """The merged :class:`ServerStats` of a fresh :meth:`snapshot`."""
        return self.snapshot().stats

    @property
    def shared_cache(self):
        """The machine-wide decoded-block cache
        (:class:`~repro.core.shm_cache.SharedBlockCache`; ``None`` when
        disabled, which the thread pool always is)."""
        return self._shm_cache

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServerError(f"{self._kind} is closed")

    def close(self) -> None:
        """Shut every worker down (process workers: polite request,
        then terminate) and release the shared block cache.

        Idempotent; afterwards every serving method raises
        :class:`~repro.errors.ServerError`.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.shutdown()
        if self._shm_cache is not None:
            # Owner pools unlink every shared segment; attached pools
            # just drop their mappings (the owner cleans up at exit).
            self._shm_cache.close()
            self._shm_cache = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ServerPool(_ShardedPool):
    """A pool of :class:`KBTIMServer` workers sharding one RR index.

    The pool opens ``n_workers`` independent readers over one index file
    — each with its own file handle, I/O counters and decoded-block cache,
    all sharing one page-level :class:`~repro.storage.pager.BufferPool` — and
    routes every query through a pluggable
    :class:`~repro.core.dispatch.Dispatcher`.  The default ``"crc32"``
    policy sends each query to the worker owning its *primary keyword*
    (lexicographically smallest resolved keyword) via a
    process-independent hash, turning keyword skew into cache locality;
    ``"rendezvous"`` trades that static mapping for load-aware weighted
    rendezvous hashing with hot-keyword replication, which keeps
    per-shard query counts balanced under Zipf head traffic (see
    ``repro.core.dispatch``).  Answers are bit-identical either way:
    every worker serves the same immutable index.

    Parameters
    ----------
    path:
        The RR index file every worker opens.
    n_workers:
        Number of shards/servers (>= 1).
    cache_keywords:
        Per-worker decoded-block-cache capacity (LRU, in keywords).
    pool_pages:
        Capacity of the shared page buffer pool.
    page_size:
        Page fault granularity in bytes.
    dispatch:
        Shard-selection policy: ``"crc32"`` (exact legacy static map,
        the default), ``"rendezvous"`` (load-aware, skew-balancing), or
        a pre-built :class:`~repro.core.dispatch.Dispatcher` sized for
        ``n_workers`` shards.

    Raises
    ------
    ValueError
        On a non-positive ``n_workers`` or ``cache_keywords``, or an
        unknown/mis-sized ``dispatch``.
    CorruptIndexError
        If ``path`` is not a readable RR index.

    Thread safety mirrors :class:`KBTIMServer`: any number of threads
    may call :meth:`query` / :meth:`query_batch` concurrently.  All
    serving, admin and stats methods are the shared pool core's;
    ``workers`` exposes the live servers (``workers[i].stats``, ...).
    """

    def __init__(
        self,
        path: str,
        *,
        n_workers: int = 4,
        cache_keywords: int = 64,
        pool_pages: int = 4096,
        page_size: int = DEFAULT_PAGE_SIZE,
        dispatch: "str | Dispatcher" = "crc32",
    ) -> None:
        super().__init__(n_workers, dispatch)
        self.buffer_pool = BufferPool(pool_pages)
        workers: List[KBTIMServer] = []
        try:
            for _ in range(self.n_workers):
                workers.append(
                    KBTIMServer(
                        RRIndex(path, pool=self.buffer_pool, page_size=page_size),
                        cache_keywords=cache_keywords,
                    )
                )
        except BaseException:
            for worker in workers:
                worker.index.close()
            raise
        self.workers: Tuple[KBTIMServer, ...] = tuple(workers)
        self._workers = [_ThreadShard(worker) for worker in workers]
        self._topic_names = workers[0].index.topic_names
