"""Self-healing serving tier: supervision over the process pool.

:class:`~repro.core.process_pool.ProcessServerPool` is fast but brittle
on its own: a dead worker permanently loses its shard, a timed-out
request leaves the worker pipe desynchronized, and past saturation the
pool queues without bound.  :class:`SupervisedServerPool` *is* a
``ProcessServerPool`` whose one shard call (``_call_shard`` on the pool
core) runs behind a per-shard supervisor that turns those faults into
bounded, typed, observable behavior:

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
  or per-call) bounds the whole supervised round trip — queueing at the
  pipe, worker compute, restart plus retry.  Queries are read-only and
  therefore idempotent, so after a worker *death* the query retries
  once on the freshly restarted worker if deadline budget remains; a
  deadline *miss* poisons the handle (the late reply must never be
  delivered to a later request — see
  ``_WorkerHandle.poisoned``) and the supervisor restarts the worker
  instead of trusting the pipe again.
* **Admission control.**  A bounded in-flight budget: beyond
  ``max_inflight`` concurrently executing requests the pool sheds load
  by raising :class:`~repro.errors.OverloadedError` immediately, with a
  ``retry_after`` hint derived from recent service times — saturation
  degrades into bounded-latency goodput plus explicit shed counts
  instead of unbounded queueing.
* **Rolling restarts + health.**  :meth:`SupervisedServerPool.drain`
  takes one shard out of rotation (fail fast, worker shut down);
  :meth:`~SupervisedServerPool.restore` spawns a fresh worker and
  resets the shard's budget.  The pool core's ``health()`` reports
  every shard's supervision state (``restarting`` / ``degraded`` /
  ``drained`` next to ``ready``), restart counts, last error and
  in-flight depth for an external health surface.

Answers stay bit-identical to the unsupervised pool (every worker
serves the same immutable file through the same ``KBTIMServer`` code);
supervision only changes what happens when something breaks.  The
supervision counters (restarts, retries, sheds) are the pool core's
parent-side counters: ``health()`` reports them and the merged
:class:`~repro.core.server.ServerStats` carries them.

Every fault path here is exercised by deterministic injected faults —
see :mod:`repro.core.chaos` and ``tests/test_supervision.py``.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence

from repro.core.process_pool import ProcessServerPool
from repro.core.query import KBTIMQuery
from repro.core.results import SeedSelection
from repro.core.server import SHARD_READY, _ShardRecord
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServerError,
    ShardUnavailableError,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "SHARD_READY",
    "SHARD_RESTARTING",
    "SHARD_DEGRADED",
    "SHARD_DRAINED",
    "SupervisedServerPool",
]


# The shard states a supervised pool's ``health()`` adds to ``ready``.

#: The worker is down/poisoned and a restart is pending (backoff window).
SHARD_RESTARTING = "restarting"
#: Restart budget exhausted: fail fast until an operator ``restore()``.
SHARD_DEGRADED = "degraded"
#: Taken out of rotation by ``drain()``; fail fast until ``restore()``.
SHARD_DRAINED = "drained"


class _ShardSupervisor(_ShardRecord):
    """The core's per-shard record plus the supervisor's state and budget."""

    __slots__ = ("drained", "degraded", "restarts_in_window", "last_failure_at")

    def __init__(self) -> None:
        super().__init__()
        self.drained = False
        self.degraded = False
        self.restarts_in_window = 0
        self.last_failure_at: Optional[float] = None


class SupervisedServerPool(ProcessServerPool):
    """A :class:`ProcessServerPool` with per-shard supervisors.

    Supervision is a policy on the pool core's request path, not a
    wrapper around a second pool: this class overrides the one shard
    call (heal → call → note failure → bounded retry), the dispatch
    candidate set, the admission bracket around :meth:`query` /
    :meth:`query_batch` and how a shard's health state is computed, and
    adds :meth:`drain` / :meth:`restore`; routing, batching, fan-out,
    ``health()`` / ``snapshot()`` and worker lifecycle are inherited.

    Parameters
    ----------
    path:
        The RR index file every worker opens (immutable while served).
    n_workers:
        Number of shards/worker processes (>= 1).
    request_timeout:
        Default per-request deadline in seconds, bounding the whole
        supervised round trip (including restart + retry); ``None``
        waits indefinitely.  Overridable per call via ``timeout=``.
        The pool's single ``request_timeout``: admin fan-outs and
        observability reads are bounded by it too.
    max_retries:
        Transparent retries per query after a worker *death* (queries
        are read-only, hence idempotent).  Default 1: retry once on the
        freshly restarted worker.  Deadline misses are never retried —
        by definition there is no budget left.
    restart_budget:
        Restarts allowed per shard within one failure window before the
        shard is declared ``degraded`` (fail fast until
        :meth:`restore`).
    restart_backoff:
        Base backoff in seconds: the first restart of a window is
        immediate, the k-th waits ``restart_backoff * 2**(k-2)``
        (capped at ``backoff_max``) after the latest failure.  ``0``
        disables the wait (deterministic tests).
    backoff_max:
        Upper bound on the exponential backoff delay.
    budget_reset_after:
        Seconds of failure-free service after which a shard's restart
        window resets — rare, unrelated faults must not accumulate into
        a degraded state over weeks of serving.
    max_inflight:
        Admission-control budget: beyond this many concurrently
        executing requests the pool sheds load with
        :class:`~repro.errors.OverloadedError` instead of queueing.
        ``None`` disables admission control.
    **pool_kwargs:
        Forwarded to :class:`ProcessServerPool` (``cache_keywords``,
        ``pool_pages``, ``start_method``, ``shared_block_cache``,
        ``dispatch``, ...).  The flat-array
        answer transport and the shared decoded-block cache are
        therefore available under supervision unchanged — a
        supervisor-initiated restart spawns a worker that *attaches* to
        the existing shared cache and gets a fresh response segment.
        With ``dispatch="rendezvous"`` the supervisors feed the
        dispatcher's candidate set: degraded and drained shards drop
        out of the rendezvous ranking, so their keywords redistribute
        minimally across the survivors instead of failing, and a
        restored shard gets exactly its old keywords back.  The default
        ``"crc32"`` policy keeps the legacy static mapping, where an
        unavailable shard's queries fail fast with
        :class:`~repro.errors.ShardUnavailableError`.

    Raises
    ------
    ValueError
        On non-positive ``n_workers``/``max_inflight`` or a negative
        timing knob.
    CorruptIndexError
        If ``path`` is not a readable RR index (checked in the parent
        before any process spawns).

    **Thread safety.**  Any number of threads may call :meth:`query` /
    :meth:`query_batch` concurrently; supervision state is per-shard
    locked, restarts serialize per shard, and admission counters sit
    behind one small lock.

    **Semantics.**  Answers are bit-identical to the unsupervised pool
    (same workers, same immutable file, same dispatch); per-query I/O
    accounting stays exact.  A restarted worker starts with cold
    caches, so a retried query may report cold-cost ``QueryStats`` —
    the *answer* is unchanged.
    """

    _kind = "supervised server pool"
    _shard_record = _ShardSupervisor

    def __init__(
        self,
        path: str,
        *,
        n_workers: int = 4,
        request_timeout: Optional[float] = None,
        max_retries: int = 1,
        restart_budget: int = 3,
        restart_backoff: float = 0.05,
        backoff_max: float = 5.0,
        budget_reset_after: float = 60.0,
        max_inflight: Optional[int] = None,
        **pool_kwargs,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        check_positive_int("restart_budget", restart_budget)
        for name, value in (
            ("restart_backoff", restart_backoff),
            ("backoff_max", backoff_max),
            ("budget_reset_after", budget_reset_after),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if max_inflight is not None:
            check_positive_int("max_inflight", max_inflight)
        self.max_retries = max_retries
        self.restart_budget = restart_budget
        self.restart_backoff = restart_backoff
        self.backoff_max = backoff_max
        self.budget_reset_after = budget_reset_after
        self.max_inflight = max_inflight

        # Validated first: a bad knob must fail before any process spawns.
        super().__init__(
            path, n_workers=n_workers, request_timeout=request_timeout, **pool_kwargs
        )
        self._admission_lock = threading.Lock()
        self._inflight = 0
        self._exhausted_until = 0.0  # chaos: forced admission exhaustion
        self._ewma_latency = 0.005  # retry-after hint, seeded at 5 ms

    # ------------------------------------------------------------------
    # supervision machinery
    # ------------------------------------------------------------------
    def _backoff_delay(self, restarts_in_window: int) -> float:
        """Backoff before restart attempt ``restarts_in_window + 1``."""
        if restarts_in_window == 0:
            return 0.0
        return min(
            self.restart_backoff * (2.0 ** (restarts_in_window - 1)),
            self.backoff_max,
        )

    def _ensure_ready(self, shard: int) -> None:
        """Heal a down shard (restart, subject to backoff + budget) or fail fast.

        Raises :class:`ShardUnavailableError` when the shard is drained,
        degraded, or inside its backoff window — carrying ``retry_after``
        when the supervisor will try again on its own.
        """
        sup = self._shards[shard]
        with sup.lock:
            if sup.drained:
                raise ShardUnavailableError(
                    f"shard {shard} is drained (rolling restart); call "
                    "restore() to return it to rotation",
                    shard=shard,
                    retry_after=None,
                )
            if sup.degraded:
                raise ShardUnavailableError(
                    f"shard {shard} is degraded: restart budget "
                    f"({self.restart_budget}) exhausted; last error: "
                    f"{sup.last_error}; call restore() after fixing the cause",
                    shard=shard,
                    retry_after=None,
                )
            if not self._workers[shard].down:
                return
            now = time.monotonic()
            if (
                sup.last_failure_at is not None
                and now - sup.last_failure_at > self.budget_reset_after
            ):
                sup.restarts_in_window = 0  # sustained health: window resets
            if sup.restarts_in_window >= self.restart_budget:
                sup.degraded = True
                raise ShardUnavailableError(
                    f"shard {shard} is degraded: {sup.restarts_in_window} "
                    "restarts exhausted the budget (crash loop); last error: "
                    f"{sup.last_error}",
                    shard=shard,
                    retry_after=None,
                )
            since_failure = (
                now - sup.last_failure_at if sup.last_failure_at is not None else 0.0
            )
            remaining = self._backoff_delay(sup.restarts_in_window) - since_failure
            if remaining > 0:
                raise ShardUnavailableError(
                    f"shard {shard} is restarting (backoff); retry in "
                    f"{remaining:.3f}s",
                    shard=shard,
                    retry_after=remaining,
                )
            self.restart_worker(shard)
            sup.restarts_in_window += 1

    def _note_failure(self, shard: int) -> None:
        """Time-stamp a transport failure (the core recorded its text);
        the next request triggers healing."""
        sup = self._shards[shard]
        with sup.lock:
            sup.last_failure_at = time.monotonic()

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
                self._supervision.record_shed()
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
    # supervised dispatch
    # ------------------------------------------------------------------
    def _call_shard(
        self,
        shard: int,
        method: str,
        payload=None,
        *,
        deadline: Optional[float] = None,
        units: int = 1,
    ):
        """One supervised round trip to a shard, healing + retrying.

        Heals the shard if needed (restart behind backoff/budget),
        makes the pool core's timed call with the remaining deadline
        budget, and on a worker *death* retries up to ``max_retries``
        times on the freshly restarted worker (counted under
        ``retries`` for serving traffic only — ``units=0`` admin
        fan-outs retry silently).  Deadline misses poison the handle
        and propagate immediately — the budget is spent.  Query-level
        errors (``QueryError``, ``IndexError_``) propagate untouched:
        the worker answered, the request was just wrong.
        """
        attempts = 0
        while True:
            self._ensure_ready(shard)
            try:
                return super()._call_shard(
                    shard, method, payload, deadline=deadline, units=units
                )
            except DeadlineExceededError:
                # A budget spent before dispatch left the worker alone;
                # only a miss that poisoned the pipe is the shard's fault.
                if self._workers[shard].down:
                    self._note_failure(shard)
                raise
            except ServerError:
                self._note_failure(shard)
                attempts += 1
                if attempts > self.max_retries:
                    raise
                if units:
                    self._supervision.record_retry()

    def _candidates(self) -> List[int]:
        """Shards currently eligible for dispatch (not drained/degraded).

        The supervisors' availability view feeds the dispatcher's
        candidate set: under ``"rendezvous"`` an excluded shard's
        keywords redistribute minimally to the survivors; the static
        ``"crc32"`` policy ignores candidates by design and keeps
        failing fast on unavailable shards.

        Raises
        ------
        ShardUnavailableError
            When every shard is drained or degraded (``shard`` is -1:
            the outage is pool-wide, not one shard's).
        """
        shards = [
            s
            for s, sup in enumerate(self._shards)
            if not (sup.drained or sup.degraded)
        ]
        if not shards:
            raise ShardUnavailableError(
                "no shard available: every shard is drained or degraded; "
                "call restore() to return shards to rotation",
                shard=-1,
                retry_after=None,
            )
        return shards

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(
        self, query: KBTIMQuery, *, timeout: Optional[float] = None
    ) -> SeedSelection:
        """Answer one query with supervision: heal, bound, retry or shed.

        Parameters
        ----------
        query:
            The ``(Q.T, Q.k)`` pair to answer.
        timeout:
            Per-call deadline in seconds overriding the pool's
            ``request_timeout``; bounds the whole supervised round trip.

        Returns
        -------
        The same :class:`~repro.core.results.SeedSelection` the
        unsupervised pool would produce.

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
            If the worker died and every retry failed.
        """
        self._admit(1)
        try:
            started = time.perf_counter()
            result = super().query(query, timeout=timeout)
            self._observe_latency(time.perf_counter() - started)
            return result
        finally:
            self._release(1)

    def query_batch(
        self,
        queries: Sequence[KBTIMQuery],
        *,
        concurrent: bool = True,
        timeout: Optional[float] = None,
    ) -> List[SeedSelection]:
        """Answer a batch, sharded, with per-sub-batch supervision.

        The batch splits by shard exactly like the unsupervised pools;
        each populated shard's sub-batch is one supervised round trip
        (healed and retried as a unit — queries are idempotent).  The
        whole batch shares one deadline and is admitted as
        ``len(queries)`` units against the in-flight budget.

        Raises
        ------
        OverloadedError
            If the batch does not fit the admission budget.
        ShardUnavailableError, DeadlineExceededError, ServerError
            As :meth:`query`, per failing shard (first failure wins;
            other shards' sub-batches may still have been answered).
        """
        queries = list(queries)
        if not queries:
            return []
        self._admit(len(queries))
        try:
            return super().query_batch(
                queries, concurrent=concurrent, timeout=timeout
            )
        finally:
            self._release(len(queries))

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def drain(self, shard: int) -> None:
        """Take one shard out of rotation for a rolling restart.

        In-flight requests on the shard finish (the worker pipe is a
        strict request/response channel); new queries fail fast with
        :class:`~repro.errors.ShardUnavailableError` (``retry_after``
        ``None`` — the shard waits for :meth:`restore`).  The worker
        process is shut down once drained.  Idempotent.
        """
        self._check_open()
        sup = self._shards[shard]
        with sup.lock:
            if sup.drained:
                return
            sup.drained = True
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
        sup = self._shards[shard]
        with sup.lock:
            self.restart_worker(shard)
            sup.drained = False
            sup.degraded = False
            sup.restarts_in_window = 0
            sup.last_failure_at = None
            sup.last_error = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _observe_latency(self, seconds: float) -> None:
        """Feed the EWMA service-time estimate behind retry-after hints."""
        self._ewma_latency += 0.2 * (seconds - self._ewma_latency)

    def _shard_state(self, shard: int) -> str:
        """The supervisor's view of one shard (record lock held)."""
        sup = self._shards[shard]
        if sup.drained:
            return SHARD_DRAINED
        if sup.degraded:
            return SHARD_DEGRADED
        return SHARD_RESTARTING if self._workers[shard].down else SHARD_READY

    @property
    def pool(self) -> "SupervisedServerPool":
        """``self`` — kept only because the frozen ``bench/targets.py``
        reads ``pool.pool.pids``; remove with the next benchmark PR."""
        return self
