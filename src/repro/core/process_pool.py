"""The serving pool: supervised worker processes over one index file.

One :class:`~repro.core.server.KBTIMServer` answers one query at a time
on one core — warm serving is pure CPU (numpy merges and greedy selection
under the GIL).  :class:`SupervisedServerPool` replicates that server as
a *shared-nothing unit*: every shard is its own process with its own
reader, decoded-block cache and buffer pool, so N shards execute on N
cores, and the parent sends each query to the one shard that owns its
primary keyword (see **Routing**).  The file may hold
either index: each worker opens it with
:func:`~repro.core.catalog.open_index`, which picks the RR or the IRR
reader from the catalog, so everything below serves both.  This module
holds the whole pool: the worker loop, the pipe handle, the request path
and the worker lifecycle.

**Routing.**  Every worker serves the same immutable file, so any of
them gives the same answer; which one runs a query decides only cache
locality and load.  The rule is static: a query goes to
:func:`shard_of_keyword` of its primary keyword — the smallest resolved
name — so a warmed keyword is served where
:meth:`~SupervisedServerPool.warm` loaded it, a recorded replay or chaos
fault plan hits the same shard every run, and an unavailable home fails
fast instead of moving.

**Transport.**  One :func:`multiprocessing.Pipe` per worker carries a
tiny pickled protocol: parent → worker messages are ``(method,
payload)`` tuples (queries and plans are plain picklable dataclasses;
:class:`~repro.core.query.KBTIMQuery` reduces through its validating
constructor), and every reply is ``("ok", result)`` or ``("err",
exception)``.  An answer is k ≤ K seeds and a few counters, a few
hundred bytes: on a 2-vCPU box pickling and unpickling a k = 10 answer
takes ~26 µs, less than writing, reading and acknowledging a
shared-memory frame of it (~47 µs).  And the pool creates nothing
outside its processes and pipes, so a killed parent or an unclosed pool
leaves nothing behind.

**Failure semantics.**  A query-level error raised inside a worker
(unknown keyword, over-budget ``k``) crosses the pipe with its original
type.  Everything else that can go wrong with a process is turned into
bounded, typed, observable behaviour on the request path — there are no
background health-check threads, every repair decision is made by the
request that needs the shard:

* **Automatic restart with backoff and a budget.**  A dead, hung or
  poisoned worker is replaced by a freshly spawned process on the next
  request to its shard — immediately on the first failure, then behind
  an exponential backoff.  A shard that keeps crashing exhausts its
  restart budget and enters a ``degraded`` state where its queries fail
  fast with :class:`~repro.errors.ShardUnavailableError` while every
  healthy shard keeps serving; the budget window resets after a
  sustained failure-free period, so rare unrelated faults never degrade
  a long-lived shard.
* **Deadlines + bounded retry.**  A per-request deadline (pool default
  or per-call) bounds the whole round trip — queueing at the pipe,
  worker compute, restart plus retry.  Queries are read-only and
  therefore idempotent, so after a worker *death* the query retries
  once on the freshly restarted worker if deadline budget remains; a
  deadline *miss* poisons the handle (the late reply must never be
  delivered to a later request — see ``_WorkerHandle.poisoned``) and
  the next request restarts the worker instead of trusting the pipe
  again.
* **Admission control.**  A bounded in-flight budget: beyond
  ``max_inflight`` concurrently executing requests the pool sheds load
  by raising :class:`~repro.errors.OverloadedError` immediately, with a
  ``retry_after`` hint derived from recent service times — saturation
  degrades into bounded-latency goodput plus explicit shed counts
  instead of unbounded queueing.
* **Rolling restarts + health.**  :meth:`SupervisedServerPool.drain`
  takes one shard out of rotation (fail fast, worker shut down);
  :meth:`~SupervisedServerPool.restore` spawns a fresh worker and
  resets the shard's budget.  ``health()`` reports every shard's state
  (``ready`` / ``restarting`` / ``degraded`` / ``drained``), restart
  counts, last error and in-flight depth for an external health
  surface.

Answers are bit-identical to :meth:`KBTIMServer.query`: each worker
runs the same ``KBTIMServer`` code over the same immutable file; a
restart only changes what the retried query *costs* (cold caches).
Every fault path here is exercised by deterministic injected faults —
see :mod:`repro.core.chaos` and the model-based ``tests/test_serving_model.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as wait_ready
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.catalog import open_index, read_catalog
from repro.core.query import KBTIMQuery, KeywordRef, resolve_keyword
from repro.core.results import SeedSelection
from repro.core.server import (
    SHARD_DEGRADED,
    SHARD_DRAINED,
    SHARD_READY,
    SHARD_RESTARTING,
    KBTIMServer,
    PoolHealth,
    PoolSnapshot,
    ServerSnapshot,
    ServerStats,
    ShardHealth,
    _dispatch,
    process_rss_bytes,
)
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServerError,
    ShardUnavailableError,
)
from repro.storage.iostats import IOStats
from repro.storage.segments import SegmentReader
from repro.utils.validation import check_positive_int

__all__ = ["SupervisedServerPool", "shard_of_keyword"]


#: Seconds the parent waits for a worker's startup handshake before
#: declaring the spawn failed.  Generous on purpose: a ``spawn`` worker
#: pays a full interpreter + numpy import before it can answer.
_STARTUP_TIMEOUT = 120.0

#: Upper bound, in seconds, on a shard's exponential restart backoff.
_BACKOFF_MAX = 5.0

#: Seconds of failure-free service after which a shard's restart window
#: resets: a worker that served this long before it failed starts a new
#: window, so rare, unrelated faults never accumulate into a degraded
#: state over weeks of serving.
_BUDGET_RESET_AFTER = 60.0

#: Restarts allowed per shard within one failure window before the shard
#: is declared ``degraded`` (fail fast until :meth:`restore`).
_RESTART_BUDGET = 3

#: Base restart backoff in seconds: the first restart of a window is
#: immediate, the k-th waits ``_RESTART_BACKOFF * 2**(k-2)`` (capped at
#: :data:`_BACKOFF_MAX`) after the shard's latest failure.
_RESTART_BACKOFF = 0.05

#: Transparent retries of a query after a worker *death* (queries are
#: read-only, hence idempotent); deadline misses are never retried.
_MAX_RETRIES = 1

#: Capacity, in pages, of each worker's buffer pool: every process pays
#: its own page cache (the ``mmap``'d file pages are shared by the kernel).
_POOL_PAGES = 4096

#: Seconds a worker waits for a request before it checks that the
#: process that started it is still its parent.  Under ``fork`` a worker
#: never sees EOF on its pipe (it and every later sibling hold a copy of
#: the parent's end), so a dead parent is noticed by pid instead.
_PARENT_POLL = 1.0


def _worker_main(conn, path: str, cache_keywords: int) -> None:
    """One worker process: a :class:`KBTIMServer` behind a request pipe.

    Opens its own reader (and therefore its own buffer pool, I/O
    counters and block cache) over the immutable index file — RR or
    IRR, whichever its catalog names — acknowledges startup, then
    serves ``(method, payload)`` requests until a ``shutdown`` request,
    a closed pipe or the death of its parent.  Every per-request
    exception is shipped back to the parent instead of killing the loop,
    so one bad query never takes down a shard.
    """
    from repro.storage.pager import BufferPool

    parent = os.getppid()
    try:
        index = open_index(path, pool=BufferPool(_POOL_PAGES))
        server = KBTIMServer(index, cache_keywords=cache_keywords)
    except BaseException as exc:  # startup failure -> surfaced by parent
        _send_result(conn, "err", _portable_exc(exc))
        conn.close()
        return
    _send_result(conn, "ready", os.getpid())
    try:
        while True:
            try:
                if not conn.poll(_PARENT_POLL):
                    if os.getppid() != parent:
                        break  # the parent died: exit quietly
                    continue
                method, payload = conn.recv()
            except (EOFError, OSError):
                break  # the parent closed the pipe: exit quietly
            except BaseException as exc:
                # The message arrived but failed to *unpickle* — e.g. a
                # query that flunked KBTIMQuery's re-validation on
                # arrival.  That is a request-level error, not a worker
                # failure: ship it back and keep serving the shard (the
                # pipe stays framed; the broken payload was consumed).
                _send_result(conn, "err", _portable_exc(exc))
                continue
            if method == "shutdown":
                _send_result(conn, "ok", None)
                break
            if method == "_chaos":
                # Deterministic fault-injection primitives (repro.core.chaos).
                # Only ever issued by a chaos controller, never by serving
                # traffic: "sleep" stalls the reply (deadline-miss fault),
                # "drop" consumes a request without ever answering it, and
                # "exit" simulates a crash from inside the worker.
                action, arg = payload
                if action == "sleep":
                    time.sleep(float(arg))
                    _send_result(conn, "ok", arg)
                elif action == "drop":
                    pass  # no reply: the parent's deadline must fire
                elif action == "exit":
                    os._exit(int(arg))
                else:
                    _send_result(
                        conn, "err", ServerError(f"unknown chaos action {action!r}")
                    )
                continue
            try:
                result = _dispatch(server, method, payload)
            except BaseException as exc:
                _send_result(conn, "err", _portable_exc(exc))
                continue
            _send_result(conn, "ok", result)
    finally:
        server.index.close()
        conn.close()


def _send_result(conn, status: str, payload) -> None:
    """Best-effort send: a dead parent must not crash the worker loop."""
    try:
        conn.send((status, payload))
    except (BrokenPipeError, OSError):
        pass


def _portable_exc(exc: BaseException) -> BaseException:
    """An exception object that survives the pipe.

    Library errors carry plain-string args and pickle as themselves, so
    the parent re-raises the original type.  Anything unpicklable is
    downgraded to a :class:`ServerError` that preserves the type name
    and message.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServerError(f"worker raised {type(exc).__name__}: {exc}")


class _WorkerHandle:
    """Parent-side endpoint of one worker process.

    ``request`` holds the per-worker lock across the send/recv pair, so
    any number of parent threads may talk to the pool while each
    worker's pipe stays a strict request/response channel.  Requests to
    one worker therefore serialise (it is one process working one shard);
    requests to different workers run fully in parallel.
    """

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.pid: Optional[int] = None
        self.lock = threading.Lock()
        self.closed = False
        #: Set when a request timed out: the worker's (possibly still
        #: coming) reply is unclaimed, so the pipe is no longer a strict
        #: request/response channel.  Every later request fails fast
        #: until the pool replaces the handle — a late reply must never
        #: be delivered as the answer to a *different* request.
        self.poisoned = False

    @property
    def alive(self) -> bool:
        """Whether the worker process is currently running (a shut-down
        handle has released its process object and answers ``False``)."""
        return not self.closed and self._running()

    def _running(self) -> bool:
        """Whether the process has not exited, read from its sentinel.

        The sentinel becomes ready when the process exits, whoever reaps
        it.  ``Process.is_alive()`` is not safe across threads: while one
        thread's ``join`` has reaped the worker but not yet stored its
        exit code, another thread's ``is_alive()`` gets ``ECHILD`` and
        reports the dead worker alive — a retry after its death would go
        to the dead pipe again instead of restarting the shard.
        """
        return not wait_ready([self.process.sentinel], 0)

    @property
    def down(self) -> bool:
        """Whether this worker can no longer be trusted to answer."""
        return self.poisoned or not self.alive

    def failure(self) -> ServerError:
        """Why this handle cannot answer: it is shut down, its pipe is
        poisoned, or its process exited (with the exit code)."""
        if self.closed:
            return ServerError(
                f"server worker {self.worker_id} is closed (pool shut down)"
            )
        if self.poisoned:
            return ServerError(
                f"server worker {self.worker_id} (pid {self.pid}) pipe is "
                "poisoned after a deadline miss; a stale reply may be in "
                "flight — the next request to its shard restarts the worker"
            )
        return self._death()

    def handshake(self, timeout: float) -> None:
        """Wait for the worker's startup acknowledgement."""
        status, payload = self._recv(timeout=timeout, starting=True)
        if status == "err":
            raise payload
        if status != "ready":
            raise ServerError(
                f"server worker {self.worker_id} sent an invalid startup "
                f"message {status!r}"
            )
        self.pid = payload

    def request(self, method: str, payload=None, *, timeout: Optional[float] = None):
        """One round trip; raises what the worker raised, or ServerError."""
        with self.lock:
            if self.closed or self.poisoned:
                raise self.failure()
            try:
                self.conn.send((method, payload))
            except (BrokenPipeError, OSError):
                raise self._death() from None
            status, result = self._recv(timeout=timeout)
        if status == "err":
            raise result
        return result

    def _recv(self, *, timeout: Optional[float], starting: bool = False):
        try:
            if timeout is not None and not self.conn.poll(timeout):
                # The request is still in flight inside the worker.  Its
                # reply, whenever it lands, belongs to no one: poison the
                # handle so no later request can mistake it for its own
                # answer.  The next request to the shard restarts the worker.
                self.poisoned = True
                raise DeadlineExceededError(
                    f"server worker {self.worker_id} (pid {self.pid}) did not "
                    f"answer within {timeout:.1f}s"
                    + (" during startup" if starting else "")
                    + "; the worker pipe is now poisoned (a stale reply may "
                    "be in flight) — the next request restarts the worker"
                )
            return self.conn.recv()
        except (EOFError, OSError):
            raise self._death() from None

    def _death(self) -> ServerError:
        """A diagnosis-bearing error for a worker that stopped talking."""
        self.process.join(timeout=1.0)
        code = self.process.exitcode
        detail = (
            f"exit code {code}" if code is not None else "still running, pipe broken"
        )
        return ServerError(
            f"server worker {self.worker_id} (pid {self.pid}) died "
            f"unexpectedly ({detail}); the next request to its shard "
            "restarts it"
        )

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Polite stop, escalating to terminate; reaps the process and
        releases its descriptors.

        The handle lock is held only across the ``closed`` flip and the
        pipe send — *not* across the reply wait or the process join —
        so a concurrent ``request()`` on another shard-dispatch thread
        observes ``closed`` promptly instead of stalling behind a
        blocking join.
        """
        with self.lock:
            if self.closed:
                return
            self.closed = True
            send_failed = self.poisoned  # a poisoned pipe may never reply
            if not send_failed:
                try:
                    self.conn.send(("shutdown", None))
                except (BrokenPipeError, OSError):
                    send_failed = True
        # The worker can no longer be addressed (closed is set), so the
        # drain + join happen outside the lock.
        try:
            if not send_failed and self.conn.poll(join_timeout):
                self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        finally:
            self.conn.close()
        if not send_failed:
            self.process.join(timeout=join_timeout)
        # A worker that was never asked to stop is terminated at once:
        # under ``fork`` it cannot see EOF on its pipe (every later
        # sibling holds a copy of the parent's end), so a polite join
        # would only wait out its timeout.
        if self._running():
            self.process.terminate()
            self.process.join(timeout=join_timeout)
        if not self.process.is_alive():
            # Release the sentinel descriptors now, not when the pool
            # object is collected.
            self.process.close()


def shard_of_keyword(name: str, n_shards: int) -> int:
    """The shard owning one resolved keyword name: ``crc32(name) % n_shards``.

    ``zlib.crc32`` (not the salted builtin ``hash``) keeps the mapping
    deterministic across processes — the pool, its workers and any
    external router agree on which worker owns a keyword, so pre-warmed
    blocks land where their traffic will.
    """
    return zlib.crc32(name.encode("utf-8")) % n_shards


def _sharded_batch(queries, shard_of, run_subbatch):
    """Split a batch by shard, run each sub-batch, reassemble in order.

    The dispatch loop behind :meth:`SupervisedServerPool.query_batch`.

    ``shard_of`` maps a query to its shard; ``run_subbatch(shard,
    sub_queries)`` answers one shard's queries in order.  Populated
    shards run on one thread each (a lone one on the calling thread); a
    failing sub-batch propagates its exception (first submitted future
    wins), and every other shard's sub-batch still runs to completion.
    """
    by_shard: Dict[int, List[int]] = {}
    for pos, query in enumerate(queries):
        by_shard.setdefault(shard_of(query), []).append(pos)
    results: List[Optional[SeedSelection]] = [None] * len(queries)

    def run_shard(shard: int, positions: List[int]) -> None:
        answers = run_subbatch(shard, [queries[pos] for pos in positions])
        for pos, answer in zip(positions, answers):
            results[pos] = answer

    if len(by_shard) > 1:
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


class _ShardRecord:
    """Parent-side bookkeeping for one shard: what :meth:`health` reports
    beyond the handle's own pid and liveness, plus the restart budget."""

    __slots__ = (
        "lock",
        "inflight",
        "restarts",
        "last_error",
        "drained",
        "degraded",
        "restarts_in_window",
        "last_failure_at",
        "started_at",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight = 0
        self.restarts = 0
        self.last_error: Optional[str] = None
        self.drained = False
        self.degraded = False
        self.restarts_in_window = 0
        self.last_failure_at: Optional[float] = None
        #: When the shard's current worker (or the latest attempt) started.
        self.started_at = time.monotonic()


class SupervisedServerPool:
    """N supervised worker *processes* sharding one immutable index file.

    Each worker owns a whole :class:`~repro.core.server.KBTIMServer`
    (reader, decoded-block cache, buffer pool) in its own process, so
    warm CPU-bound serving scales past the GIL; the parent resolves and
    routes each query, bounds it with a deadline, heals the shard it
    lands on and retries once after a death.  In-process serving needs
    no pool: one ``KBTIMServer`` serialises its callers on one core.

    Parameters
    ----------
    path:
        The index file every worker opens, RR or IRR (the catalog's
        ``format`` picks the reader).  The file is immutable while
        served, so workers need no cross-process coordination.
    n_workers:
        Number of shards/worker processes (>= 1).
    cache_keywords:
        Per-worker decoded-block-cache capacity (LRU, in keywords) — each
        worker's memory bound, the same option as
        :class:`~repro.core.server.KBTIMServer`'s.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` picks ``fork`` where available
        (cheap startup) and ``spawn`` elsewhere.  Kept as an argument
        because ``spawn`` is the only method on macOS and Windows: the
        tests pass ``"spawn"`` to cover that path on Linux too.
    request_timeout:
        Default per-request deadline in seconds, bounding the whole
        round trip (including restart + retry); ``None`` waits
        indefinitely — worker *death* is still detected immediately via
        the broken pipe.  Overridable per call via ``timeout=``.  The
        pool's single deadline: admin fan-outs and :meth:`snapshot`
        reads are bounded by it too.
    max_inflight:
        Admission-control budget: beyond this many concurrently
        executing requests the pool sheds load with
        :class:`~repro.errors.OverloadedError` instead of queueing.
        ``None`` disables admission control.

    Supervision is not configured per pool; it follows module
    constants: a query retries ``_MAX_RETRIES`` (1) time after a worker
    death; a shard may restart ``_RESTART_BUDGET`` (3) times per failure
    window before it is ``degraded``; the first restart of a window is
    immediate and the k-th waits ``_RESTART_BACKOFF * 2**(k-2)`` seconds
    (0.05 s base, capped at ``_BACKOFF_MAX`` = 5 s) after the latest
    failure; the window resets after ``_BUDGET_RESET_AFTER`` (60 s) of
    failure-free service.  Each worker's reader has a buffer pool of
    ``_POOL_PAGES`` (4096) pages of the default page size.

    Raises
    ------
    ValueError
        On a non-positive ``n_workers``, ``cache_keywords`` or
        ``max_inflight``, or an unknown ``start_method``.
    TypeError
        On any other keyword argument.
    CorruptIndexError
        If ``path`` is not a readable index file.
    ServerError
        If a worker fails its startup handshake.

    Every argument is checked, and the catalog read in the parent,
    *before* the first pipe or process is created, so a rejected
    constructor leaves nothing behind.

    **Thread safety.**  Any number of parent threads may call
    :meth:`query` / :meth:`query_batch` concurrently; each worker's pipe
    is a locked request/response channel, so concurrent queries to one
    shard serialise (that shard is one process) while different shards
    proceed in parallel.  Shard state is per-shard locked, restarts
    serialise per shard, and admission counters sit behind one small
    lock.

    **Semantics.**  Answers are bit-identical to
    :meth:`KBTIMServer.query` — same code, same immutable file — and
    per-query :class:`~repro.core.results.QueryStats` carry exact I/O
    accounting measured inside the owning worker.  A restarted worker
    starts with cold caches, so a retried query may report cold-cost
    ``QueryStats`` — the *answer* is unchanged.  Telemetry is two
    calls: :meth:`health` (parent-side, no worker round trip) and
    :meth:`snapshot` (one request/response copy per ready worker;
    :attr:`stats` is its merged view).
    """

    def __init__(
        self,
        path: str,
        *,
        n_workers: int = 4,
        cache_keywords: int = 64,
        start_method: Optional[str] = None,
        request_timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        self.n_workers = check_positive_int("n_workers", n_workers)
        self.cache_keywords = check_positive_int("cache_keywords", cache_keywords)
        if max_inflight is not None:
            check_positive_int("max_inflight", max_inflight)
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.path = str(path)
        self.request_timeout = request_timeout
        self.max_inflight = max_inflight
        # Parent-side catalog: names + topic-id map only, for query and
        # warm routing.  Loaded once and the reader closed *before*
        # spawning, so no open file descriptor leaks into fork children
        # and a corrupt file fails fast in the parent.
        with SegmentReader(self.path) as reader:
            self._topic_names = read_catalog(reader).topic_names

        self._shards = [_ShardRecord() for _ in range(self.n_workers)]
        #: Parent-side restarts / retries / sheds, merged into :attr:`stats`
        #: and counted under ``_admission_lock`` (many threads serve here).
        self._supervision = ServerStats(latency_window=0)
        self._admission_lock = threading.Lock()
        self._inflight = 0
        self._exhausted_until = 0.0  # chaos: forced admission exhaustion
        self._ewma_latency = 0.005  # retry-after hint, seeded at 5 ms
        self._closed = False
        # Held from pipe creation until the child's end is closed, so no
        # concurrently forked worker inherits another worker's end (a
        # dead worker's pipe would then never report EOF).
        self._spawn_lock = threading.Lock()
        # Nothing above outlives a failed constructor; from here on a
        # failure must release what was created.
        workers: List[_WorkerHandle] = []
        try:
            for worker_id in range(self.n_workers):
                workers.append(self._start_worker(worker_id))
            for handle in workers:
                handle.handshake(_STARTUP_TIMEOUT)
        except BaseException:
            for handle in workers:
                handle.shutdown(join_timeout=1.0)
            raise
        self._workers = workers

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _start_worker(self, worker_id: int) -> _WorkerHandle:
        """Spawn one worker process (handshake is the caller's job)."""
        with self._spawn_lock:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.path, self.cache_keywords),
                name=f"kbtim-server-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()  # the worker owns its end now
        return _WorkerHandle(worker_id, process, parent_conn)

    def restart_worker(self, shard: int) -> None:
        """Replace one shard's worker with a freshly spawned process.

        The mechanism behind self-healing (and behind manual rolling
        restarts): the old handle is shut down — politely if its pipe
        is still framed, by terminate if the process is dead, hung, or
        poisoned — and a fresh worker is spawned, handshaked and
        swapped in.  The new worker starts with cold caches; answers
        stay bit-identical because every worker serves the same
        immutable file.  Every successful restart is counted
        (``health().restarts`` and the shard's own ``restarts``),
        whoever asked for it.

        Raises
        ------
        ServerError
            If the pool is closed, or the replacement worker fails its
            startup handshake (the shard is then left with the dead
            handle — a later restart attempt may still succeed).
        """
        self._check_open()
        self._workers[shard].shutdown(join_timeout=1.0)
        handle = self._start_worker(shard)
        try:
            handle.handshake(_STARTUP_TIMEOUT)
        except BaseException:
            handle.shutdown(join_timeout=1.0)
            raise
        self._workers[shard] = handle
        # Not under the shard record's lock: healing calls this with
        # that lock already held.
        self._shards[shard].started_at = time.monotonic()
        self._shards[shard].restarts += 1
        with self._admission_lock:
            self._supervision.restarts += 1

    def _ensure_ready(self, shard: int) -> None:
        """Heal a down shard (restart, subject to backoff + budget) or fail fast.

        Raises :class:`ShardUnavailableError` when the shard is drained,
        degraded, or inside its backoff window — carrying ``retry_after``
        when the next request will try again on its own.
        """
        record = self._shards[shard]
        with record.lock:
            if record.drained:
                raise ShardUnavailableError(
                    f"shard {shard} is drained (rolling restart); call "
                    "restore() to return it to rotation",
                    shard=shard,
                    retry_after=None,
                )
            if record.degraded:
                raise ShardUnavailableError(
                    f"shard {shard} is degraded: restart budget "
                    f"({_RESTART_BUDGET}) exhausted; last error: "
                    f"{record.last_error}; call restore() after fixing the cause",
                    shard=shard,
                    retry_after=None,
                )
            if not self._workers[shard].down:
                return
            now = time.monotonic()
            failed_at = record.last_failure_at
            if failed_at is None or failed_at < record.started_at:
                # No request saw this worker fail (it died idle, or a
                # direct request poisoned it): the failure is timed, and
                # diagnosed, when it is first noticed.
                failed_at = record.last_failure_at = now
                failure = self._workers[shard].failure()
                record.last_error = f"{type(failure).__name__}: {failure}"
            if failed_at - record.started_at > _BUDGET_RESET_AFTER:
                record.restarts_in_window = 0  # it served a whole window
            since_failure = now - failed_at
            if record.restarts_in_window >= _RESTART_BUDGET:
                record.degraded = True
                raise ShardUnavailableError(
                    f"shard {shard} is degraded: {record.restarts_in_window} "
                    "restarts exhausted the budget (crash loop); last error: "
                    f"{record.last_error}",
                    shard=shard,
                    retry_after=None,
                )
            # The first restart of a window is immediate, the k-th waits
            # _RESTART_BACKOFF * 2**(k-2) after the latest failure.
            backoff = 0.0
            if record.restarts_in_window:
                backoff = min(
                    _RESTART_BACKOFF * 2.0 ** (record.restarts_in_window - 1),
                    _BACKOFF_MAX,
                )
            if backoff > since_failure:
                raise ShardUnavailableError(
                    f"shard {shard} is restarting (backoff); retry in "
                    f"{backoff - since_failure:.3f}s",
                    shard=shard,
                    retry_after=backoff - since_failure,
                )
            # A failed restart spends budget too, or a worker that cannot
            # start (a damaged file) would be respawned forever.
            record.restarts_in_window += 1
            try:
                self.restart_worker(shard)
            except BaseException as exc:
                record.last_error = f"{type(exc).__name__}: {exc}"
                record.started_at = record.last_failure_at = time.monotonic()
                raise

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, query: KBTIMQuery) -> int:
        """The worker that serves this query: :func:`shard_of_keyword`
        of its primary (smallest resolved) keyword name.

        Static — availability never moves a query: a drained or degraded
        home fails fast with :class:`~repro.errors.ShardUnavailableError`
        when the query is sent.  Resolution only (an unknown *name*
        routes to some shard, whose server then raises the reader's
        usual ``IndexError_``): full validation (duplicates, budget)
        stays with the serving worker, so it runs once per query.

        Raises
        ------
        IndexError_
            If a topic-id keyword ref is not in the index.
        """
        names = (resolve_keyword(self._topic_names, kw) for kw in query.keywords)
        return shard_of_keyword(min(names), self.n_workers)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, units: int) -> None:
        """Claim admission budget or shed with a typed Overloaded error."""
        if self.max_inflight is None and self._exhausted_until <= 0.0:
            return
        with self._admission_lock:
            now = time.monotonic()
            exhausted = now < self._exhausted_until
            over = (
                self.max_inflight is not None
                and self._inflight + units > self.max_inflight
            )
            if exhausted or over:
                self._supervision.sheds += 1
                if exhausted:
                    retry_after = self._exhausted_until - now
                    detail = "admission budget exhausted (injected fault)"
                else:
                    retry_after = max(self._ewma_latency, 1e-3)
                    detail = (
                        f"{self._inflight} requests in flight >= "
                        f"max_inflight {self.max_inflight}"
                    )
                raise OverloadedError(
                    f"serving tier overloaded: {detail}; retry after "
                    f"{retry_after:.3f}s",
                    retry_after=retry_after,
                )
            self._inflight += units

    def _release(self, units: int) -> None:
        """Return admission budget claimed by :meth:`_admit`."""
        if self.max_inflight is None and self._exhausted_until <= 0.0:
            return
        with self._admission_lock:
            self._inflight = max(0, self._inflight - units)

    def inject_admission_exhaustion(self, seconds: float) -> None:
        """Force admission control to shed everything for ``seconds``.

        A deterministic fault-injection hook (the ``exhaust`` event of a
        :class:`~repro.core.chaos.FaultPlan`): every request admitted
        during the window raises :class:`~repro.errors.OverloadedError`
        with the window's remaining time as ``retry_after``, exactly as
        if the in-flight budget were full.
        """
        with self._admission_lock:
            self._exhausted_until = time.monotonic() + seconds

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
        """One round trip to a shard: heal, bound, time, retry after a death.

        Heals the shard if needed (restart behind backoff/budget), then
        makes one timed request with what is left of ``deadline`` — one
        already spent fails before anything is sent, so a healthy worker
        is never poisoned by a request that could not be answered in
        time.  ``units`` is the request's weight in the shard's
        in-flight gauge (``len(batch)`` for a sub-batch, ``0`` for admin
        fan-outs, which are not serving load); every successful serving
        round trip feeds the retry-after estimate.  On a worker *death* the
        request retries up to ``_MAX_RETRIES`` times on the freshly
        restarted worker (counted under ``retries`` for serving traffic
        only — ``units=0`` admin fan-outs retry silently).  Deadline misses poison the
        handle and propagate immediately — the budget is spent.
        Query-level errors (``QueryError``, ``IndexError_``) propagate
        untouched: the worker answered, the request was just wrong.
        """
        record = self._shards[shard]
        attempts = 0
        while True:
            self._ensure_ready(shard)
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline exhausted before dispatch to shard {shard} "
                    "(spent on queueing/restarts)"
                )
            with record.lock:
                record.inflight += units
            started = time.perf_counter()
            try:
                result = self._workers[shard].request(
                    method, payload, timeout=remaining
                )
            except ServerError as exc:
                # Time-stamped for the backoff window; the next request
                # to the shard triggers healing.
                record.last_error = f"{type(exc).__name__}: {exc}"
                with record.lock:
                    record.last_failure_at = time.monotonic()
                attempts += 1
                spent = isinstance(exc, DeadlineExceededError)  # never retried
                if spent or attempts > _MAX_RETRIES:
                    raise
                if units:
                    with self._admission_lock:
                        self._supervision.retries += 1
            else:
                if units:
                    # The EWMA service-time estimate behind retry-after
                    # hints: single queries and sub-batches alike (one
                    # thread per shard updates it during a batch).
                    elapsed = time.perf_counter() - started
                    with self._admission_lock:
                        self._ewma_latency += 0.2 * (elapsed - self._ewma_latency)
                return result
            finally:
                with record.lock:
                    record.inflight -= units

    def query(
        self, query: KBTIMQuery, *, timeout: Optional[float] = None
    ) -> SeedSelection:
        """Answer one query on its shard's worker (Algorithm 2 or 4).

        Parameters
        ----------
        query:
            The ``(Q.T, Q.k)`` pair to answer.
        timeout:
            Per-call deadline in seconds overriding the pool's
            ``request_timeout``; bounds the whole round trip, restart
            and retry included.

        Returns
        -------
        The same :class:`~repro.core.results.SeedSelection`
        :meth:`KBTIMServer.query` would produce.

        Raises
        ------
        QueryError, IndexError_
            The usual query-level errors, untouched.
        OverloadedError
            If admission control shed the request (``retry_after`` set).
        ShardUnavailableError
            If the owning shard is drained, degraded, or inside its
            restart backoff window.
        DeadlineExceededError
            If the deadline passed before an answer arrived (the worker
            is restarted behind the scenes; the late answer is never
            delivered elsewhere).
        ServerError
            If the pool is closed, or the worker died and every retry
            failed.
        """
        self._check_open()
        self._admit(1)
        try:
            return self._call_shard(
                self.shard_of(query), "query", query, deadline=self._deadline(timeout)
            )
        finally:
            self._release(1)

    def query_batch(
        self,
        queries: Sequence[KBTIMQuery],
        *,
        timeout: Optional[float] = None,
    ) -> List[SeedSelection]:
        """Answer a batch, sharded and in parallel.

        The batch is split by shard, each populated shard's sub-batch
        runs through its worker's :meth:`KBTIMServer.query_batch` (one
        shared load per keyword at the maximum requested prefix) as one
        round trip — healed and retried as a unit — and results return
        in input order.  The sub-batches are issued on one thread per
        populated shard, so they execute on as many cores.  The whole
        batch shares one deadline and is admitted as ``len(queries)``
        units against the in-flight budget.

        Raises
        ------
        QueryError
            If any query is invalid.  Validation happens during each
            sub-batch's planning phase, before that shard touches disk;
            other shards' sub-batches may still have been answered.
        IndexError_
            On the first unknown keyword.
        OverloadedError
            If the batch does not fit the admission budget.
        ShardUnavailableError, DeadlineExceededError, ServerError
            As :meth:`query`, per failing shard (first failure wins;
            other shards' sub-batches may still have been answered).
        """
        self._check_open()
        queries = list(queries)
        if not queries:
            return []
        self._admit(len(queries))
        try:
            deadline = self._deadline(timeout)
            return _sharded_batch(
                queries,
                self.shard_of,
                lambda shard, sub: self._call_shard(
                    shard, "query_batch", sub, deadline=deadline, units=len(sub)
                ),
            )
        finally:
            self._release(len(queries))

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def warm(self, keywords: Iterable[KeywordRef]) -> None:
        """Pre-load each keyword on the one worker that owns it.

        The owner is :func:`shard_of_keyword` of the resolved name, so a
        keyword is warmed exactly where a query with it as the primary
        keyword is served.  Grouped fan-out: one request per populated
        shard, counted under each worker's ``warm_loads``.  A failed
        shard does not abort the fan-out: every surviving shard is still
        warmed, and the failure surfaces afterwards as one
        :class:`~repro.errors.ServerError` naming the failed shard(s).

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
        by_shard: Dict[int, List[str]] = {}
        for kw in keywords:
            name = resolve_keyword(self._topic_names, kw)
            shard = shard_of_keyword(name, self.n_workers)
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
        unavailable worker cannot stop healthy shards from being
        administered.
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

    def drain(self, shard: int) -> None:
        """Take one shard out of rotation for a rolling restart.

        In-flight requests on the shard finish (the worker pipe is a
        strict request/response channel); new queries fail fast with
        :class:`~repro.errors.ShardUnavailableError` (``retry_after``
        ``None`` — the shard waits for :meth:`restore`).  The worker
        process is shut down once drained.  Idempotent.
        """
        self._check_open()
        record = self._shards[shard]
        with record.lock:
            if record.drained:
                return
            record.drained = True
        # New dispatches now fail fast; the handle serializes in-flight
        # work, so a polite shutdown drains before stopping.
        self._workers[shard].shutdown()

    def restore(self, shard: int) -> None:
        """Return a drained or degraded shard to rotation with a fresh worker.

        Spawns a replacement process, resets the shard's restart window
        and degraded flag (the budget starts over — restoring is the
        operator saying "the cause is fixed"), and marks it ``ready``.

        Raises
        ------
        ServerError
            If the replacement worker fails its startup handshake; the
            shard stays out of rotation.
        """
        self._check_open()
        record = self._shards[shard]
        with record.lock:
            self.restart_worker(shard)
            record.drained = False
            record.degraded = False
            record.restarts_in_window = 0
            record.last_failure_at = None
            record.last_error = None

    # ------------------------------------------------------------------
    # observability: health() is parent-side, snapshot() asks the shards
    # ------------------------------------------------------------------
    def health(self) -> PoolHealth:
        """Everything the parent knows, without a worker round trip.

        Per shard: state (``ready`` / ``restarting`` / ``degraded`` /
        ``drained``), liveness, pid, RSS read from ``/proc``, restarts,
        in-flight units and the last transport error; for the pool: the
        restart / retry / shed counters, the admission budget and the
        workers' total RSS.  Never
        waits on a shard, so it stays cheap and safe to poll from a
        health endpoint while shards are busy, hung or dead.

        Raises
        ------
        ServerError
            If the pool is closed.
        """
        self._check_open()
        shards = []
        for shard, record in enumerate(self._shards):
            with record.lock:
                worker = self._workers[shard]
                alive = worker.alive
                if record.drained:
                    state = SHARD_DRAINED
                elif record.degraded:
                    state = SHARD_DEGRADED
                else:
                    state = SHARD_RESTARTING if worker.down else SHARD_READY
                shards.append(
                    ShardHealth(
                        shard=shard,
                        state=state,
                        alive=alive,
                        pid=worker.pid,
                        rss_bytes=process_rss_bytes(worker.pid) if alive else 0,
                        restarts=record.restarts,
                        inflight=record.inflight,
                        last_error=record.last_error,
                    )
                )
        return PoolHealth(
            shards=tuple(shards),
            inflight=sum(shard.inflight for shard in shards),
            max_inflight=self.max_inflight,
            restarts=self._supervision.restarts,
            retries=self._supervision.retries,
            sheds=self._supervision.sheds,
            rss_bytes=sum(shard.rss_bytes for shard in shards),
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
                # Deliberately not _call_shard: a read must neither count
                # as serving load nor restart anything.
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
        )

    @property
    def stats(self) -> ServerStats:
        """The merged :class:`ServerStats` of a fresh :meth:`snapshot`."""
        return self.snapshot().stats

    @property
    def pids(self) -> List[int]:
        """Worker process ids, in shard order — ``health().shards[i].pid``;
        kept only for the frozen ``bench/targets.py`` (ROADMAP 4(e))."""
        return [handle.pid for handle in self._workers]

    @property
    def pool(self) -> "SupervisedServerPool":
        """``self`` — kept only because the frozen ``bench/targets.py``
        reads ``pool.pool.pids``; remove with the next benchmark PR."""
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServerError("supervised server pool is closed")

    def close(self) -> None:
        """Shut every worker down (polite request, then terminate).

        Idempotent; afterwards every serving method raises
        :class:`~repro.errors.ServerError`, and no child process or
        file descriptor of the pool remains.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.shutdown()

    def __enter__(self) -> "SupervisedServerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
