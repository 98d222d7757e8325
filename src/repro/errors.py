"""Exception hierarchy for the KB-TIM reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` raised
by argument validation) from domain failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GraphError(ReproError):
    """Raised for malformed graphs (bad vertex ids, inconsistent CSR, ...)."""


class ProfileError(ReproError):
    """Raised for malformed topic profiles or unknown topics."""


class QueryError(ReproError):
    """Raised for invalid KB-TIM queries (empty keyword set, bad k, ...)."""


class StorageError(ReproError):
    """Raised for on-disk format violations and I/O layer misuse."""


class CorruptIndexError(StorageError):
    """Raised when an index file fails checksum / magic / bounds validation."""


class IndexError_(ReproError):
    """Raised for logical index errors (keyword missing, not built, ...).

    Named with a trailing underscore to avoid shadowing the ``IndexError``
    builtin while keeping the obvious name.
    """


class EstimationError(ReproError):
    """Raised when OPT estimation cannot produce a usable lower bound."""


class ServerError(ReproError):
    """Raised when a serving worker fails out-of-band.

    Query-level failures (bad keyword, over-budget ``k``) keep their
    usual types even across a process boundary; :class:`ServerError`
    covers the transport instead — a worker process that died, a pipe
    that broke, or a request issued after the pool was closed — so
    callers can tell "your query was wrong" from "the serving tier is
    unhealthy" with one ``except`` clause.
    """


class DeadlineExceededError(ServerError):
    """Raised when a request exceeded its deadline before answering.

    The worker may still be computing (or may have died silently); the
    caller's pipe is no longer synchronized with it, so the owning
    handle is poisoned and the worker is restarted by the next request
    rather than trusted to frame the next reply.  The answer,
    if it ever arrives, is discarded, never delivered to a later
    request.
    """


class ShardUnavailableError(ServerError):
    """Raised fast for queries whose shard is down, draining or degraded.

    Carries ``shard`` (the worker index) and ``retry_after`` (seconds
    until the supervisor will next attempt a restart; ``None`` when the
    shard is out of restart budget or drained and needs operator
    action).  Other shards keep serving — this error scopes the outage
    to the keywords the dead shard owns.
    """

    def __init__(self, message: str, *, shard: int, retry_after: "float | None" = None):
        super().__init__(message)
        self.shard = shard
        self.retry_after = retry_after

    def __reduce__(self):
        """Pickle through the keyword-only constructor (pipe transport)."""
        return (_rebuild_shard_unavailable, (self.args[0], self.shard, self.retry_after))


def _rebuild_shard_unavailable(message, shard, retry_after):
    """Unpickle helper for :class:`ShardUnavailableError`."""
    return ShardUnavailableError(message, shard=shard, retry_after=retry_after)


class OverloadedError(ServerError):
    """Raised when admission control sheds a request (load shedding).

    The serving tier is saturated: its bounded in-flight budget is
    full, and queueing further work would only grow latency without
    bound.  ``retry_after`` is a hint in seconds (derived from recent
    service times) after which capacity is likely to be available —
    the library-level analogue of HTTP 429 + ``Retry-After``.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after

    def __reduce__(self):
        """Pickle through the keyword-only constructor (pipe transport)."""
        return (_rebuild_overloaded, (self.args[0], self.retry_after))


def _rebuild_overloaded(message, retry_after):
    """Unpickle helper for :class:`OverloadedError`."""
    return OverloadedError(message, retry_after=retry_after)
