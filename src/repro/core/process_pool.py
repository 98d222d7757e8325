"""Process-level serving workers: the GIL-free tier of the server stack.

The thread :class:`~repro.core.server.ServerPool` proved (BENCH_pr4.json)
that warm serving is pure CPU — numpy merges and greedy selection under
the GIL — so adding threads buys contention, not throughput.
:class:`ProcessServerPool` is the same pool core
(:class:`~repro.core.server._ShardedPool`: dispatch, sharded batches,
warm/evict fan-out, merged stats) over a different shard executor:
every worker is its *own process* with its own reader, decoded-block
cache and buffer pool, so N shards really execute on N cores.  This
module keeps only what a process-backed shard needs — the worker loop,
the pipe handle, and spawn/handshake/restart/shared-memory lifecycle.

The request path is a tiny pickled protocol over one
:func:`multiprocessing.Pipe` per worker — parent → worker messages are
``(method, payload)`` tuples (queries and plans are plain picklable
dataclasses; :class:`~repro.core.query.KBTIMQuery` reduces through its
validating constructor).  The *answer* path is zero-copy: query results
are laid out as flat arrays in a per-worker shared-memory segment
(:mod:`repro.core.transport`) and the pipe carries only a tiny
``("okf", (seq, nbytes, generation))`` acknowledgement; the parent
reconstructs :class:`~repro.core.results.SeedSelection` objects from
array slices.  Administrative replies (telemetry snapshots, warm/evict
acks) and errors still travel pickled — ``("ok", result)`` /
``("err", exception)`` — and where shared memory is unavailable (or a
frame cannot be written) answers degrade to the pickled path on their
own, bit-identical either way.

Workers can additionally share one machine-wide decoded-block cache
(``shared_block_cache=True``): the parent creates/attaches a
:class:`~repro.core.shm_cache.SharedBlockCache` and every worker —
including restarted workers — *attaches* to it, so each hot keyword is
PFOR-decoded once per machine instead of once per worker.  Off by
default because a shared hit legitimately changes per-query I/O
accounting (zero reads instead of two).

Failure surfacing is first-class: a query-level error raised inside a
worker (unknown keyword, over-budget ``k``) crosses the pipe with its
original type, while a *dead* worker — killed, crashed, or OOMed — turns
the next request on its shard into a
:class:`~repro.errors.ServerError` naming the worker and exit code
instead of a hang.

Answers are bit-identical to :meth:`KBTIMServer.query` and to the thread
pool: each worker runs the same ``KBTIMServer`` code over the same
immutable file, and dispatch shares the same pluggable
:class:`~repro.core.dispatch.Dispatcher` policies.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import time
from typing import List, Optional

from repro.core.catalog import RR_FORMAT, read_catalog
from repro.core.dispatch import Dispatcher
from repro.core.results import SeedSelection
from repro.core.server import KBTIMServer, _dispatch, _ShardedPool
from repro.core.shm_cache import (
    SharedBlockCache,
    shared_cache_name_for,
    unlink_segment,
)
from repro.core.transport import ResponseReader, ResponseWriter, transport_available
from repro.errors import DeadlineExceededError, ServerError
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.segments import SegmentReader
from repro.utils.validation import check_positive_int

__all__ = ["ProcessServerPool"]


#: Seconds the parent waits for a worker's startup handshake before
#: declaring the spawn failed.  Generous on purpose: a ``spawn`` worker
#: pays a full interpreter + numpy import before it can answer.
_STARTUP_TIMEOUT = 120.0


def _worker_main(
    conn, path: str, worker_id: int, config: dict, resp_name: Optional[str] = None
) -> None:
    """One worker process: a :class:`KBTIMServer` behind a request pipe.

    Opens its own reader (and therefore its own buffer pool, I/O
    counters and block cache) over the immutable index file, attaches
    the machine-wide decoded-block cache behind it when one is
    configured (attach only — a restarted worker must never re-create
    shared state),
    creates its flat-response segment, acknowledges startup, then serves
    ``(method, payload)`` requests until a ``shutdown`` request or a
    closed pipe.  Every per-request exception is shipped back to the
    parent instead of killing the loop, so one bad query never takes
    down a shard.
    """
    from repro.core.rr_index import RRIndex
    from repro.storage.pager import BufferPool

    shared_cache = None
    writer = None
    try:
        cache_name = config.get("shm_cache_name")
        if cache_name:
            try:
                shared_cache = SharedBlockCache(cache_name, create=False)
            except Exception:
                # The shared tier is an optimisation: if the directory is
                # gone (owner shut down first) the worker degrades to
                # private decodes — answers stay exact.
                shared_cache = None
        index = RRIndex(
            path,
            pool=BufferPool(config["pool_pages"]),
            page_size=config["page_size"],
            shared_cache=shared_cache,
        )
        server = KBTIMServer(index, cache_keywords=config["cache_keywords"])
        if resp_name is not None:
            try:
                writer = ResponseWriter(resp_name)
            except OSError:
                writer = None  # pickle fallback; parent detects via "ok"
    except BaseException as exc:  # startup failure -> surfaced by parent
        _send_result(conn, "err", _portable_exc(exc))
        conn.close()
        return
    _send_result(conn, "ready", os.getpid())
    seq = 0
    try:
        while True:
            try:
                method, payload = conn.recv()
            except (EOFError, OSError):
                break  # parent died or closed the pipe: exit quietly
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
            if writer is not None and method in ("query", "query_batch"):
                batch = result if method == "query_batch" else [result]
                seq += 1
                try:
                    nbytes, generation = writer.write(batch, seq)
                except Exception:
                    # A failed flat encode (segment unlinked under us,
                    # shm exhausted) degrades to the pickled path for
                    # this answer; the protocol stays framed either way.
                    _send_result(conn, "ok", result)
                else:
                    _send_result(conn, "okf", (seq, nbytes, generation))
            else:
                _send_result(conn, "ok", result)
    finally:
        if writer is not None:
            writer.close(unlink=True)
        if shared_cache is not None:
            shared_cache.close()
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

    def __init__(
        self, worker_id: int, process, conn, resp_name: Optional[str] = None
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.resp_name = resp_name
        self._reader: Optional[ResponseReader] = None
        self.pid: Optional[int] = None
        self.lock = threading.Lock()
        self.closed = False
        #: Set when a request timed out: the worker's (possibly still
        #: coming) reply is unclaimed, so the pipe is no longer a strict
        #: request/response channel.  Every later request fails fast
        #: until the worker is restarted — a late reply must never be
        #: delivered as the answer to a *different* request.
        self.poisoned = False

    @property
    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process.is_alive()

    @property
    def down(self) -> bool:
        """Whether this worker can no longer be trusted to answer."""
        return self.closed or self.poisoned or not self.alive

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
            if self.closed:
                raise ServerError(
                    f"server worker {self.worker_id} is closed (pool shut down)"
                )
            if self.poisoned:
                raise self._poisoned_error()
            try:
                self.conn.send((method, payload))
            except (BrokenPipeError, OSError):
                raise self._death() from None
            status, result = self._recv(timeout=timeout)
            if status == "okf":
                # Flat-frame answer: decode *under the lock* — the
                # worker reuses one response buffer per request, so the
                # frame must be consumed before the next send.
                try:
                    batch = self._read_frame(result)
                except ServerError:
                    # A desynchronised or unreadable frame means parent
                    # and worker no longer agree on transport state.
                    self.poisoned = True
                    raise
                status = "ok"
                result = batch[0] if method == "query" else batch
        if status == "err":
            raise result
        return result

    def _read_frame(self, ack) -> List[SeedSelection]:
        """Decode one acknowledged flat response frame (lock held)."""
        if self.resp_name is None:
            raise ServerError(
                f"server worker {self.worker_id} sent a flat-frame reply "
                "but no response segment was configured"
            )
        if self._reader is None:
            self._reader = ResponseReader(self.resp_name)
        seq, nbytes, generation = ack
        return self._reader.read(seq, nbytes, generation)

    def _recv(self, *, timeout: Optional[float], starting: bool = False):
        try:
            if timeout is not None and not self.conn.poll(timeout):
                # The request is still in flight inside the worker.  Its
                # reply, whenever it lands, belongs to no one: poison the
                # handle so no later request can mistake it for its own
                # answer.  Supervision restarts poisoned workers.
                self.poisoned = True
                raise DeadlineExceededError(
                    f"server worker {self.worker_id} (pid {self.pid}) did not "
                    f"answer within {timeout:.1f}s"
                    + (" during startup" if starting else "")
                    + "; the worker pipe is now poisoned (a stale reply may "
                    "be in flight) — restart the worker to resynchronize"
                )
            return self.conn.recv()
        except (EOFError, OSError):
            raise self._death() from None

    def _poisoned_error(self) -> ServerError:
        """The fail-fast error for a pipe with an unclaimed reply in flight."""
        return ServerError(
            f"server worker {self.worker_id} (pid {self.pid}) pipe is "
            "poisoned after a deadline miss; a stale reply may be in "
            "flight — restart the worker (restart_worker) to resynchronize"
        )

    def _death(self) -> ServerError:
        """A diagnosis-bearing error for a worker that stopped talking."""
        self.process.join(timeout=1.0)
        code = self.process.exitcode
        detail = (
            f"exit code {code}" if code is not None else "still running, pipe broken"
        )
        return ServerError(
            f"server worker {self.worker_id} (pid {self.pid}) died "
            f"unexpectedly ({detail}); its shard is unavailable — restart "
            "the worker (restart_worker) or rebuild the pool to restore it"
        )

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Polite stop, escalating to terminate; always reaps the process.

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
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=join_timeout)
        # Reap the response segment *after* the process is gone.  The
        # worker unlinks it on graceful shutdown; this covers workers
        # that were killed or terminated — both sides tolerate the other
        # having unlinked first, so nothing leaks in /dev/shm.
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self.resp_name is not None:
            unlink_segment(self.resp_name)


class ProcessServerPool(_ShardedPool):
    """N worker *processes* sharding one immutable RR index file.

    The process-level counterpart of the thread
    :class:`~repro.core.server.ServerPool`, on the same pool core: same
    pluggable dispatch (a :class:`~repro.core.dispatch.Dispatcher` —
    static ``"crc32"`` on the query's primary keyword by default,
    load-aware ``"rendezvous"`` opt-in), same sharded ``query_batch``,
    ``warm``/``evict_all`` fan-out and merged
    :class:`~repro.core.server.ServerStats` view — but each worker owns
    a whole :class:`~repro.core.server.KBTIMServer` (reader,
    decoded-block cache, buffer pool) in its own process, so warm
    CPU-bound serving scales past the GIL.

    Parameters
    ----------
    path:
        The RR index file every worker opens.  The file is immutable
        while served, so workers need no cross-process coordination.
    n_workers:
        Number of shards/processes (>= 1).
    cache_keywords:
        Per-worker decoded-block-cache capacity (LRU, in keywords).
    pool_pages:
        Capacity of each worker's page buffer pool.  Unlike the thread
        pool there is no shared pool — every process pays its own page
        cache, the standard memory-for-parallelism trade.
    page_size:
        Page fault granularity in bytes.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` picks ``fork`` where available
        (cheap startup) and ``spawn`` elsewhere.
    request_timeout:
        Optional per-request ceiling in seconds; a worker that exceeds
        it raises :class:`~repro.errors.DeadlineExceededError` (a
        ``ServerError``) on the caller and leaves that worker's pipe
        poisoned — every later request to the shard fails fast until
        :meth:`restart_worker` replaces it.  ``None`` (default) waits
        indefinitely — worker *death* is still detected immediately via
        the broken pipe.
    shared_block_cache:
        Put one machine-wide :class:`~repro.core.shm_cache.SharedBlockCache`
        behind every worker's block cache (each hot keyword is
        PFOR-decoded once per machine).  Off by default: a shared
        hit legitimately reports zero per-query reads where a private
        decode reports two, so enabling it changes I/O accounting.
    shm_cache_slots:
        Directory capacity of the shared block cache (keywords held at
        once); only meaningful with ``shared_block_cache=True``.
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
        If ``path`` is not a readable RR index (checked in the parent
        before any process is spawned).
    ServerError
        If a worker fails its startup handshake.

    **Thread safety.**  Any number of parent threads may call
    :meth:`query` / :meth:`query_batch` concurrently; each worker's pipe
    is a locked request/response channel, so concurrent queries to one
    shard serialise (that shard is one process) while different shards
    proceed in parallel.

    **Semantics.**  Answers are bit-identical to
    :meth:`KBTIMServer.query` and to the thread pool — same code, same
    immutable file, same dispatch — and per-query
    :class:`~repro.core.results.QueryStats` carry exact I/O accounting
    measured inside the owning worker.  Query answers travel as flat
    arrays through per-worker shared-memory segments
    (:mod:`repro.core.transport`) wherever shared memory exists
    (:attr:`flat_transport` reports it) and as pickles otherwise.
    Telemetry is the pool core's two calls: :meth:`health` (parent-side,
    no worker round trip) and :meth:`snapshot` (one request/response
    copy per ready worker, consistent per worker, fetched at call time;
    :attr:`stats` is its merged view).
    """

    _kind = "process server pool"

    def __init__(
        self,
        path: str,
        *,
        n_workers: int = 4,
        cache_keywords: int = 64,
        pool_pages: int = 4096,
        page_size: int = DEFAULT_PAGE_SIZE,
        start_method: Optional[str] = None,
        request_timeout: Optional[float] = None,
        shared_block_cache: bool = False,
        shm_cache_slots: int = 64,
        dispatch: "str | Dispatcher" = "crc32",
    ) -> None:
        super().__init__(n_workers, dispatch, request_timeout)
        check_positive_int("cache_keywords", cache_keywords)
        self.path = str(path)
        #: Whether answers ride flat shared-memory frames (observed, not
        #: configured: true wherever POSIX shared memory exists).
        self.flat_transport = transport_available()
        self._resp_counter = itertools.count()
        # Parent-side catalog: names + topic-id map only, for dispatch
        # and warm routing.  Loaded once and the reader closed *before*
        # spawning, so no open file descriptor leaks into fork children
        # and a corrupt file fails fast in the parent.
        with SegmentReader(self.path, page_size=page_size) as reader:
            self._topic_names = read_catalog(reader, RR_FORMAT).topic_names
        self._config = {
            "page_size": page_size,
            "cache_keywords": cache_keywords,
            "pool_pages": check_positive_int("pool_pages", pool_pages),
        }
        if shared_block_cache and transport_available():
            # The parent creates (or, if another pool over the same file
            # is already serving, attaches to) the machine-wide cache;
            # workers always attach only, so a restarted worker can never
            # re-create or unlink shared state.
            self._shm_cache = SharedBlockCache(
                shared_cache_name_for(self.path),
                slots=check_positive_int("shm_cache_slots", shm_cache_slots),
                create=True,
            )
            self._config["shm_cache_name"] = self._shm_cache.name

        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method

        workers: List[_WorkerHandle] = []
        try:
            for worker_id in range(self.n_workers):
                workers.append(self._start_worker(worker_id))
            for handle in workers:
                handle.handshake(_STARTUP_TIMEOUT)
        except BaseException:
            for handle in workers:
                handle.shutdown(join_timeout=1.0)
            if self._shm_cache is not None:
                self._shm_cache.close()
            raise
        self._workers: List[_WorkerHandle] = workers

    def _start_worker(self, worker_id: int) -> _WorkerHandle:
        """Spawn one worker process (handshake is the caller's job)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        resp_name = None
        if self.flat_transport:
            # Parent-assigned and unique per spawn: the parent can reap
            # the segment even after ``kill -9``, and a restarted worker
            # never collides with its predecessor's segment.
            resp_name = (
                f"kbtim-resp-{os.getpid()}-{worker_id}-{next(self._resp_counter)}"
            )
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.path, worker_id, self._config, resp_name),
            name=f"kbtim-server-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns its end now
        return _WorkerHandle(worker_id, process, parent_conn, resp_name)

    def restart_worker(self, shard: int) -> None:
        """Replace one shard's worker with a freshly spawned process.

        The mechanism behind
        :class:`~repro.core.supervision.SupervisedServerPool`'s
        self-healing (and behind manual rolling restarts): the old
        handle is shut down — politely if its pipe is still framed,
        by terminate if the process is dead, hung, or poisoned — and a
        fresh worker is spawned, handshaked and swapped in.  The new
        worker starts with cold caches; answers stay bit-identical
        because every worker serves the same immutable file.  Every
        successful restart is counted (``health().restarts`` and the
        shard's own ``restarts``), whoever asked for it.

        Raises
        ------
        ServerError
            If the pool is closed, or the replacement worker fails its
            startup handshake (the shard is then left with the dead
            handle — a later restart attempt may still succeed).
        """
        self._check_open()
        old = self._workers[shard]
        old.shutdown(join_timeout=1.0)
        handle = self._start_worker(shard)
        try:
            handle.handshake(_STARTUP_TIMEOUT)
        except BaseException:
            handle.shutdown(join_timeout=1.0)
            raise
        self._workers[shard] = handle
        # Not under the shard record's lock: a supervisor calls this
        # with that lock already held.
        self._shards[shard].restarts += 1
        self._supervision.record_restart()

    @property
    def pids(self) -> List[int]:
        """Worker process ids, in shard order (``health().shards[i].pid``
        for callers that hold no pool-kind assumption)."""
        return [handle.pid for handle in self._workers]
