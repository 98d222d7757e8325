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
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dispatch import Dispatcher, make_dispatcher, shard_of_keyword
from repro.core.query import KBTIMQuery, KeywordRef
from repro.core.results import SeedSelection
from repro.core.rr_index import KeywordCoverageCSR, RRIndex, select_seeds
from repro.errors import DeadlineExceededError, IndexError_, QueryError, ServerError
from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE, BufferPool
from repro.utils.validation import check_positive_int

__all__ = [
    "KBTIMServer",
    "ServerPool",
    "ServerStats",
    "process_rss_bytes",
    "shard_of_keyword",
]


def process_rss_bytes(pid: Optional[int] = None) -> int:
    """Resident-set size of a process in bytes (0 when unmeasurable).

    Reads ``/proc/<pid>/statm`` (Linux; the second field is resident
    pages), so the parent can measure a *worker's* RSS without a
    round-trip and a worker can measure its own.  On platforms without
    procfs, falls back to ``resource.getrusage`` for the current process
    and returns 0 for others — memory gauges are observability, never
    correctness, so absence degrades to zero rather than raising.
    """
    try:
        with open(f"/proc/{pid if pid is not None else 'self'}/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    if pid is None:
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


@dataclass
class ServerStats:
    """Aggregate serving statistics.

    Latency samples are bounded: only the most recent ``latency_window``
    per-query latencies are retained (ring buffer), so a long-lived
    server's memory stays constant.  :meth:`percentile_latency` is exact
    over that window; :attr:`mean_latency` stays exact over *all* queries
    (it is derived from the running totals, not the samples).  Cache
    counters distinguish query traffic (``keyword_hits`` /
    ``keyword_misses``) from administrative pre-warming (``warm_loads``),
    so :attr:`hit_ratio` reflects only what real queries experienced.

    Counter updates go through the ``record_*`` methods, which take a
    small internal lock — a server answers queries from many threads,
    and a racing ``+=`` would silently drop counts.  Reading the plain
    integer fields stays lock-free.
    """

    queries: int = 0
    keyword_hits: int = 0
    keyword_misses: int = 0
    warm_loads: int = 0
    #: Worker restarts performed by a supervisor (parent-side counter).
    restarts: int = 0
    #: Queries transparently retried after a worker restart.
    retries: int = 0
    #: Requests shed by admission control (never dispatched to a worker).
    sheds: int = 0
    #: Resident-set size of the serving process, in bytes (a gauge,
    #: refreshed via :meth:`record_memory`; 0 until first refresh).
    rss_bytes: int = 0
    #: Bytes of machine-wide shared-memory segments (decoded-block
    #: cache) visible to this server — a gauge like ``rss_bytes``.
    shm_bytes: int = 0
    total_seconds: float = 0.0
    latency_window: int = _LATENCY_WINDOW
    _latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

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
        with self._lock:
            out = ServerStats(
                queries=self.queries,
                keyword_hits=self.keyword_hits,
                keyword_misses=self.keyword_misses,
                warm_loads=self.warm_loads,
                restarts=self.restarts,
                retries=self.retries,
                sheds=self.sheds,
                rss_bytes=self.rss_bytes,
                shm_bytes=self.shm_bytes,
                total_seconds=self.total_seconds,
                latency_window=self.latency_window,
            )
            out._latencies = deque(self._latencies, maxlen=self.latency_window or None)
        return out

    @property
    def latencies(self) -> Tuple[float, ...]:
        """The retained latency samples (at most ``latency_window``).

        A read-only snapshot: mutate via :meth:`record_latency` only (a
        tuple makes old ``stats.latencies.append(...)`` callers fail
        loudly instead of mutating a discarded copy).  The window bound
        is applied here too, so a runtime shrink takes effect on the
        next *read*, not only on the next recorded sample.
        """
        window = self.latency_window
        if window <= 0:
            return ()
        with self._lock:
            samples = tuple(self._latencies)
        return samples[-window:] if len(samples) > window else samples

    def record_latency(self, seconds: float) -> None:
        """Retain one latency sample, dropping the oldest when full.

        ``latency_window <= 0`` disables retention entirely; resizing the
        window at runtime keeps the newest samples.
        """
        with self._lock:
            window = self.latency_window
            if window <= 0:
                self._latencies.clear()
                return
            if self._latencies.maxlen != window:
                # Window resized at runtime: a bounded deque keeps the newest.
                self._latencies = deque(self._latencies, maxlen=window)
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
        """Count one supervised worker restart."""
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

    def record_memory(self, *, rss_bytes: int, shm_bytes: int = 0) -> None:
        """Refresh the memory gauges (process RSS, shared-segment bytes).

        Unlike the monotonic counters these are point-in-time gauges;
        the serving tier refreshes them when a stats snapshot is taken.
        """
        with self._lock:
            self.rss_bytes = int(rss_bytes)
            self.shm_bytes = int(shm_bytes)

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
        retained sample rather than one worker's.  Memory gauges merge by
        their sharing semantics: per-process ``rss_bytes`` *sum* (the
        pool's total resident footprint) while ``shm_bytes`` takes the
        *maximum* — every worker reports the same machine-wide segments,
        which must be counted once, not once per worker.  The result is
        a snapshot — it does not track the workers afterwards.
        """
        merged_window = max(1, sum(p.latency_window for p in parts)) if parts else 1
        out = cls(latency_window=merged_window)
        out._latencies = deque(maxlen=merged_window)
        for part in parts:
            with part._lock:
                out.queries += part.queries
                out.keyword_hits += part.keyword_hits
                out.keyword_misses += part.keyword_misses
                out.warm_loads += part.warm_loads
                out.restarts += part.restarts
                out.retries += part.retries
                out.sheds += part.sheds
                out.rss_bytes += part.rss_bytes
                out.shm_bytes = max(out.shm_bytes, part.shm_bytes)
                out.total_seconds += part.total_seconds
                out._latencies.extend(part._latencies)
        return out


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
            _block, hit = self._fetch(self.index._resolve(kw))
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
    if method == "stats":
        return server.stats.snapshot()
    if method == "io_stats":
        return server.index.stats.snapshot()
    if method == "cached_keywords":
        return server.cached_keywords
    if method == "ping":
        return os.getpid()
    raise ServerError(f"unknown worker request {method!r}")


class _ThreadShard:
    """In-thread shard executor: the request protocol on a local server.

    Like the process pool's pipe-backed ``_WorkerHandle`` it exposes
    ``request`` / ``shutdown`` / ``pid`` — all the pool core needs.
    """

    #: ``None`` means "this process" to :func:`process_rss_bytes`.
    pid = None

    def __init__(self, server: KBTIMServer) -> None:
        self.server = server

    def request(self, method: str, payload=None, *, timeout: Optional[float] = None):
        """Run one request inline (an in-thread call cannot be timed out)."""
        return _dispatch(self.server, method, payload)

    def shutdown(self) -> None:
        """Close the server's index reader (the pool owns it)."""
        self.server.index.close()


class _ShardedPool:
    """The one request path shared by every serving pool.

    A pool is this core plus a list of shard executors
    (``self._workers``: :class:`_ThreadShard` or the process pool's
    ``_WorkerHandle``) and the catalog's topic-id map
    (``self._topic_names``), both supplied by the subclass constructor.
    Everything a request does — resolve, route, time, call the shard,
    split a batch, fan out an admin request, merge stats — happens here
    exactly once; supervision overrides :meth:`_call_shard`,
    :meth:`_candidates` and :meth:`_read_shard` instead of wrapping a
    second pool.
    """

    #: How the closed-pool error names this pool.
    _kind = "server pool"

    def __init__(
        self,
        n_workers: int,
        dispatch: "str | Dispatcher",
        request_timeout: Optional[float] = None,
    ) -> None:
        self.n_workers = check_positive_int("n_workers", n_workers)
        self.dispatcher = make_dispatcher(dispatch, self.n_workers)
        self.request_timeout = request_timeout
        self._shm_cache = None  # set by pools that share decoded blocks
        self._closed = False

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _resolve(self, keyword: KeywordRef) -> str:
        """Topic names pass through; ids resolve via the catalog map.

        Mirrors ``RRIndex._resolve`` exactly (including *not* validating
        names — an unknown name dispatches to some shard whose server
        then raises the reader's usual ``IndexError_``), so every pool
        kind routes a query to the same shard.
        """
        if isinstance(keyword, str):
            return keyword
        name = self._topic_names.get(keyword)
        if name is None:
            raise IndexError_(f"topic id {keyword!r} is not in the index")
        return name

    def _resolved_names(self, query: KBTIMQuery) -> List[str]:
        """The query's keyword refs resolved to names, for dispatch.

        Resolution only: full validation (duplicates, budget) stays with
        the serving worker, so it runs once per query.
        """
        return [self._resolve(kw) for kw in query.keywords]

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
        if units:
            self.dispatcher.begin(shard, units=units)
        started = time.perf_counter()
        try:
            return self._workers[shard].request(method, payload, timeout=remaining)
        finally:
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
            name = self._resolve(kw)
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
    # observability
    # ------------------------------------------------------------------
    def _read_shard(self, shard: int, method: str):
        """One observability read from a shard's executor.

        Deliberately *not* :meth:`_call_shard`: reading a gauge must
        neither move the dispatcher's load signals nor (under
        supervision) restart anything.
        """
        return self._workers[shard].request(method, timeout=self.request_timeout)

    def _gather(self, method: str) -> List:
        """:meth:`_read_shard` for every shard, in shard order."""
        self._check_open()
        return [self._read_shard(shard, method) for shard in range(self.n_workers)]

    def worker_stats(self) -> List[ServerStats]:
        """Per-worker :class:`ServerStats` snapshots, in shard order."""
        return self._gather("stats")

    def _parent_stats(self) -> List[ServerStats]:
        """Counters kept by the pool itself rather than by a worker."""
        return []

    @property
    def stats(self) -> ServerStats:
        """Pool-level aggregated stats (a snapshot fetched from every
        worker; see :meth:`worker_stats` for shard detail)."""
        parts = [part for part in self.worker_stats() if part is not None]
        return ServerStats.merged(parts + self._parent_stats())

    @property
    def io_stats(self) -> IOStats:
        """Summed physical I/O counters across every worker's reader."""
        total = IOStats()
        for part in self._gather("io_stats"):
            if part is not None:
                total.add(part)
        return total

    def worker_cached_keywords(self) -> List[List[str]]:
        """Each worker's cached keyword names (LRU order), in shard order."""
        return self._gather("cached_keywords")

    @property
    def shared_cache(self):
        """The machine-wide decoded-block cache
        (:class:`~repro.core.shm_cache.SharedBlockCache`; ``None`` when
        disabled, which the thread pool always is)."""
        return self._shm_cache

    def memory_info(self) -> Dict[str, object]:
        """Parent-measured memory footprint: per-worker RSS + shared bytes.

        Reads the RSS of each worker's hosting process straight from
        ``/proc`` (no worker round trip, so it works even while shards
        are busy or dead — a vanished pid reports 0).  The total counts
        every process once: a thread pool's workers all live in this
        one.  ``shm_bytes`` is the shared block cache's resident
        segments (machine-wide, counted once; 0 when disabled).
        """
        self._check_open()
        pids = [worker.pid for worker in self._workers]
        rss = {pid: process_rss_bytes(pid) for pid in set(pids)}
        cache = self.shared_cache
        return {
            "per_worker_rss_bytes": [rss[pid] for pid in pids],
            "total_rss_bytes": sum(rss.values()),
            "shm_bytes": cache.shared_bytes() if cache is not None else 0,
        }

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
        self._topic_names = workers[0].index._topic_names
