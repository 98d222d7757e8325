"""Deterministic, seedable fault injection for the serving tier.

Every robustness claim the serving pool makes — automatic restart,
degraded mode, pipe resynchronization after a deadline miss, load
shedding — is exercised here by *injected* faults rather than asserted.
The vocabulary is a :class:`FaultPlan`: an ordered list of
:class:`FaultEvent` rows, each saying *what* breaks (``kill`` a worker,
``delay`` or ``drop`` a reply, ``exhaust`` the admission budget,
``corrupt`` the index file at open) and *when* (just before dispatching
the query at a given 0-based ordinal in the workload).  Plans round-trip
through JSON, so the exact same schedule drives the test suite, a bug
report, and ``repro replay --chaos plan.json``; :meth:`FaultPlan.random`
generates one from a seed for randomized-but-reproducible campaigns.

A :class:`ChaosController` binds a plan to a live pool and is consulted
by the replay driver (:func:`repro.datasets.workload.replay`) before
each query.  Faults fire through real mechanisms — ``SIGKILL`` to the
worker process, a worker-side sleep that outlives a zero deadline, a
request the worker deliberately never answers — so the parent exercises
its production failure paths, not mocks of them.

The ``corrupt`` kind is special: it happens at *open* time, before any
pool exists, so it is consumed by whoever opens the index (see
:meth:`FaultPlan.corrupt_events` and :func:`corrupt_index_copy`) rather
than by the controller.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import DeadlineExceededError, ServerError

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
    "corrupt_index_copy",
]

#: The fault vocabulary a :class:`FaultPlan` may use.
FAULT_KINDS = ("kill", "delay", "drop", "exhaust", "corrupt")

#: Kinds that target one worker shard (``shard`` is required for these).
_SHARD_KINDS = ("kill", "delay", "drop")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`:

        ``kill``
            SIGKILL the shard's worker process (and reap it), so the
            very next request to that shard finds it dead.
        ``delay``
            Make the shard's worker sleep ``seconds`` before replying
            to an injected request whose deadline is zero — the parent
            times out, the pipe is poisoned, and the late reply must be
            discarded by a restart (the resynchronization path).
        ``drop``
            Make the shard's worker swallow one request without ever
            replying — same parent-side outcome as ``delay`` (deadline
            miss, poisoned pipe) but the worker stays healthy.
        ``exhaust``
            Force admission control to shed every request for
            ``seconds``.
        ``corrupt``
            Corrupt the index file at open; consumed by the opener via
            :func:`corrupt_index_copy`, not by the controller.
    after_query:
        Fire just before dispatching the query at this 0-based ordinal
        of the workload.
    shard:
        Target worker index; required for ``kill``/``delay``/``drop``.
    seconds:
        Duration for ``delay`` (the worker-side sleep) and ``exhaust``
        (the shedding window).

    Raises
    ------
    ValueError
        On an unknown ``kind``, a negative ``after_query``/``seconds``,
        or a missing ``shard`` for a shard-targeted kind.
    """

    kind: str
    after_query: int
    shard: Optional[int] = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after_query < 0:
            raise ValueError(f"after_query must be >= 0, got {self.after_query}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.kind in _SHARD_KINDS and self.shard is None:
            raise ValueError(f"fault kind {self.kind!r} requires a shard")

    def to_dict(self) -> dict:
        """A JSON-ready row (see :meth:`FaultPlan.to_json`)."""
        return {
            "kind": self.kind,
            "after_query": self.after_query,
            "shard": self.shard,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output (validating)."""
        return cls(
            kind=row["kind"],
            after_query=int(row["after_query"]),
            shard=row.get("shard"),
            seconds=float(row.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, reproducible schedule of injected faults.

    A plan is pure data: it can be written by hand, generated from a
    seed (:meth:`random`), serialized to JSON (:meth:`to_json` /
    :meth:`from_json` / :meth:`load` / :meth:`save`) and handed to a
    :class:`ChaosController` or ``repro replay --chaos``.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)
    #: The seed this plan was generated from (``None`` for handwritten
    #: plans); carried for provenance in reports.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def events_at(self, position: int) -> List[FaultEvent]:
        """Events scheduled to fire just before query ``position``."""
        return [e for e in self.events if e.after_query == position]

    def corrupt_events(self) -> List[FaultEvent]:
        """The at-open ``corrupt`` events (consumed by the opener)."""
        return [e for e in self.events if e.kind == "corrupt"]

    def to_json(self) -> str:
        """Serialize the plan to a stable, human-editable JSON document."""
        return json.dumps(
            {
                "seed": self.seed,
                "events": [e.to_dict() for e in self.events],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from :meth:`to_json` output (validating events).

        Raises
        ------
        ValueError
            If the document is not valid JSON or an event row is
            malformed.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or "events" not in doc:
            raise ValueError("fault plan JSON must be an object with 'events'")
        return cls(
            events=tuple(FaultEvent.from_dict(row) for row in doc["events"]),
            seed=doc.get("seed"),
        )

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--chaos plan.json`` path)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        """Write the plan as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def random(
        cls,
        *,
        seed: int,
        n_queries: int,
        n_shards: int,
        n_events: int = 3,
        kinds: Sequence[str] = ("kill", "delay", "drop", "exhaust"),
        seconds: float = 0.2,
    ) -> "FaultPlan":
        """Generate a reproducible random plan from a seed.

        The same ``(seed, n_queries, n_shards, n_events, kinds)`` always
        produces the same plan — randomized fault campaigns stay
        replayable.  ``corrupt`` is deliberately not in the default
        vocabulary (it prevents the pool from opening at all).

        Raises
        ------
        ValueError
            If ``kinds`` contains an unknown kind, or ``n_queries`` /
            ``n_shards`` is not positive.
        """
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
        if n_queries <= 0 or n_shards <= 0:
            raise ValueError("n_queries and n_shards must be positive")
        rng = random.Random(seed)
        events = []
        for _ in range(n_events):
            kind = rng.choice(list(kinds))
            events.append(
                FaultEvent(
                    kind=kind,
                    after_query=rng.randrange(n_queries),
                    shard=(
                        rng.randrange(n_shards) if kind in _SHARD_KINDS else None
                    ),
                    seconds=seconds if kind in ("delay", "exhaust") else 0.0,
                )
            )
        events.sort(key=lambda e: (e.after_query, e.kind, e.shard or 0))
        return cls(events=tuple(events), seed=seed)


class ChaosController:
    """Binds a :class:`FaultPlan` to a live pool and fires its events.

    The replay driver calls :meth:`before_query` with each query's
    0-based ordinal; events scheduled at that ordinal fire through real
    failure mechanisms against the pool.  Every firing is appended to
    :attr:`fired` as a JSON-ready record (kind, shard, query position,
    observed effect), so replay reports can show exactly which faults
    landed where.

    The pool is a
    :class:`~repro.core.process_pool.SupervisedServerPool`; ``corrupt``
    events are at-open and always recorded as ``"skipped"`` here.
    """

    def __init__(self, plan: FaultPlan, pool) -> None:
        self.plan = plan
        self.pool = pool
        #: JSON-ready records of every event that fired, in firing order.
        self.fired: List[dict] = []

    def before_query(self, position: int) -> None:
        """Fire every event scheduled just before query ``position``."""
        for event in self.plan.events_at(position):
            self._fire(event, position)

    def _fire(self, event: FaultEvent, position: int) -> None:
        """Fire one event through its real failure mechanism."""
        effect = "skipped"
        if event.kind == "kill":
            handle = self.pool._workers[event.shard]
            if handle.alive:  # a drained shard's process is already released
                handle.process.kill()
                handle.process.join(timeout=10.0)
            effect = f"worker {event.shard} killed (SIGKILL)"
        elif event.kind in ("delay", "drop"):
            handle = self.pool._workers[event.shard]
            action = (
                ("sleep", event.seconds) if event.kind == "delay" else ("drop", None)
            )
            try:
                # Zero deadline: the reply (late or never) is unclaimed,
                # so the handle poisons itself — the exact production
                # path a slow worker triggers.
                handle.request("_chaos", action, timeout=0.0)
                effect = "no-op (reply arrived in time)"
            except DeadlineExceededError:
                effect = f"worker {event.shard} pipe poisoned ({event.kind})"
            except ServerError as exc:
                effect = f"not delivered ({type(exc).__name__})"
        elif event.kind == "exhaust":
            self.pool.inject_admission_exhaustion(event.seconds)
            effect = f"admission shedding for {event.seconds}s"
        self.fired.append(
            {
                "query": position,
                "kind": event.kind,
                "shard": event.shard,
                "seconds": event.seconds,
                "effect": effect,
            }
        )


def corrupt_index_copy(src, dst, *, seed: int = 0, n_bytes: int = 4) -> List[int]:
    """Copy ``src`` to ``dst`` and deterministically corrupt the copy.

    Flips the first magic byte (so the copy fails
    :class:`~repro.errors.CorruptIndexError` validation immediately at
    open) plus ``n_bytes`` seeded random byte positions (so deeper
    checksum tiers get exercised too when the header check is relaxed).
    The source file is never touched.  Returns the corrupted offsets.

    Raises
    ------
    ValueError
        If ``src`` is empty (nothing to corrupt).
    """
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        if size == 0:
            raise ValueError(f"{src}: cannot corrupt an empty file")
        rng = random.Random(seed)
        offsets = {0}
        offsets.update(rng.randrange(size) for _ in range(n_bytes))
        for offset in sorted(offsets):
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
    return sorted(offsets)
