"""Pluggable query dispatch for the sharded serving pool.

:class:`~repro.core.process_pool.SupervisedServerPool` answers each
query on exactly one worker, and *which* worker is the dispatcher's
decision.  Because every worker serves the same immutable RR index
file, any worker can answer any query bit-identically; dispatch is
therefore purely a cache-locality and load-balance policy, never a
correctness decision.  Two policies ship:

* :class:`Crc32Dispatcher` (``dispatch="crc32"``, the default) — the
  exact legacy mapping: ``crc32(primary keyword) % n_shards``.  Static
  and process-independent, so replay traces and chaos fault plans that
  pin a shard by query ordinal stay deterministic.  Its weakness is
  Zipf skew: BENCH_pr5 measured 37/48 mixed-workload queries landing on
  one of 4 shards because one keyword dominated the primary position.
* :class:`RendezvousDispatcher` (``dispatch="rendezvous"``) — weighted
  rendezvous (highest-random-weight) hashing over the *candidate* shard
  set, with three skew-fighting extensions: shard weights fed by live
  in-flight depth and EWMA latency (the parent-side mirror of the
  ``ServerStats``/``PoolHealth`` gauges), power-of-two-choices among
  the valid homes of a multi-keyword query (any shard already holding
  one of the requested keywords is a valid home), and replication of
  the top-P hot keywords — tracked by a decayed
  :class:`FrequencySketch` — so Zipf head traffic fans out across
  replicas instead of serializing on one worker.

Rendezvous hashing gives minimal disruption by construction: removing
one shard from the candidate set remaps only the keywords that shard
owned (~1/N of the keyspace), and restoring it remaps exactly those
keywords back.  The pool exploits this by dropping
degraded/drained shards out of the candidate set, so traffic
redistributes minimally instead of failing.  ``tests/test_dispatch.py``
pins these properties — balance bounds under Zipf, minimal disruption,
determinism under frozen weights, and replica-answer equivalence with
exact I/O accounting — as the contract any future dispatcher must meet.
"""

from __future__ import annotations

import hashlib
import math
import threading
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.utils.validation import check_positive_int

__all__ = [
    "Crc32Dispatcher",
    "Dispatcher",
    "FrequencySketch",
    "RendezvousDispatcher",
    "make_dispatcher",
    "shard_of_keyword",
]


def shard_of_keyword(name: str, n_shards: int) -> int:
    """The shard owning one resolved keyword name (legacy crc32 map).

    ``zlib.crc32`` (not the salted builtin ``hash``) keeps the mapping
    deterministic across processes — the pool, its workers and any
    external router all agree on which worker owns a keyword,
    so pre-warmed blocks land where their traffic will.
    """
    return zlib.crc32(name.encode("utf-8")) % n_shards


class FrequencySketch:
    """Decayed keyword-frequency tracking for hot-set detection.

    A bounded map of keyword name -> exponentially decayed count: every
    observation adds 1, and every ``decay_every`` observations all
    counts halve (entries decayed below 0.5 are dropped, and the map is
    trimmed to ``capacity`` survivors).  The decay window makes the
    sketch track the *current* head of the query distribution — a
    keyword that stops trending ages out instead of staying hot
    forever.  Fully deterministic given the observation sequence, which
    is what lets the dispatch property tests replay it exactly.

    Not thread-safe on its own; the owning dispatcher serializes access
    under its lock.
    """

    def __init__(self, *, decay_every: int = 64, capacity: int = 256) -> None:
        self.decay_every = check_positive_int("decay_every", decay_every)
        self.capacity = check_positive_int("capacity", capacity)
        self._counts: Dict[str, float] = {}
        self._observations = 0

    def observe(self, name: str) -> None:
        """Count one occurrence of ``name`` (decaying on schedule)."""
        self._counts[name] = self._counts.get(name, 0.0) + 1.0
        self._observations += 1
        if self._observations % self.decay_every == 0:
            self._decay()

    def _decay(self) -> None:
        """Halve all counts; drop the faded and trim to capacity."""
        survivors = {
            name: count / 2.0
            for name, count in self._counts.items()
            if count / 2.0 >= 0.5
        }
        if len(survivors) > self.capacity:
            kept = sorted(survivors.items(), key=lambda kv: (-kv[1], kv[0]))
            survivors = dict(kept[: self.capacity])
        self._counts = survivors

    def count(self, name: str) -> float:
        """The decayed count of ``name`` (0.0 if never seen or faded)."""
        return self._counts.get(name, 0.0)

    def hot(self, top: int, *, min_count: float = 1.0) -> Tuple[str, ...]:
        """The up-to-``top`` hottest names with count >= ``min_count``.

        Ordered by decayed count descending, name ascending on ties, so
        the hot set is deterministic given the observation history.
        """
        eligible = [
            (name, count)
            for name, count in self._counts.items()
            if count >= min_count
        ]
        eligible.sort(key=lambda kv: (-kv[1], kv[0]))
        return tuple(name for name, _count in eligible[: max(0, top)])


class Dispatcher:
    """Base class of the pluggable shard-selection policies.

    A dispatcher maps the *resolved keyword names* of a query to one
    shard in ``[0, n_shards)``, optionally restricted to a ``candidates``
    subset (the pool passes the shards currently in rotation).
    The split between :meth:`peek` (pure, repeatable) and :meth:`route`
    (records the decision into the policy's load/frequency state) is
    part of the contract: ``pool.shard_of`` must stay side-effect free
    so tests and operators can ask "where would this go?" without
    steering subsequent traffic.

    Subclasses implement :meth:`peek` / :meth:`homes_of_name`; the
    stateless base implementations of :meth:`route`, :meth:`begin` and
    :meth:`complete` suit static policies like crc32.
    """

    #: Policy name, as accepted by :func:`make_dispatcher` (``"crc32"``,
    #: ``"rendezvous"``).
    name = "abstract"

    def __init__(self, n_shards: int) -> None:
        self.n_shards = check_positive_int("n_shards", n_shards)

    def _candidate_list(
        self, candidates: Optional[Iterable[int]]
    ) -> List[int]:
        """Normalize ``candidates`` (``None`` means every shard)."""
        if candidates is None:
            return list(range(self.n_shards))
        out = sorted(set(candidates))
        if not out:
            raise ValueError("candidates must name at least one shard")
        if out[0] < 0 or out[-1] >= self.n_shards:
            raise ValueError(
                f"candidates {out} out of range for {self.n_shards} shards"
            )
        return out

    def peek(
        self,
        names: Sequence[str],
        candidates: Optional[Iterable[int]] = None,
    ) -> int:
        """The shard this query would dispatch to, without recording it.

        ``names`` are the query's resolved keyword names (non-empty).
        Pure: repeated calls with unchanged dispatcher state return the
        same shard.
        """
        raise NotImplementedError

    def route(
        self,
        names: Sequence[str],
        candidates: Optional[Iterable[int]] = None,
    ) -> int:
        """Choose the serving shard for one query and record the decision.

        Equals :meth:`peek` on the same pre-call state; stateful
        policies additionally update their frequency/residency/assigned
        accounting *after* choosing, so a peek immediately followed by a
        route agree.
        """
        return self.peek(names, candidates)

    def homes_of_name(
        self,
        name: str,
        candidates: Optional[Iterable[int]] = None,
    ) -> Tuple[int, ...]:
        """Every shard a warmed keyword should be pre-loaded on.

        One shard for a static policy; a hot keyword under a
        replicating policy returns its full replica set so ``warm()``
        fronts the traffic on every replica.
        """
        raise NotImplementedError

    def begin(self, shard: int, units: int = 1) -> None:
        """Note ``units`` requests entering ``shard`` (load gauge up)."""

    def complete(self, shard: int, seconds: float, units: int = 1) -> None:
        """Note ``units`` requests leaving ``shard`` after ``seconds``."""

    def load_snapshot(self) -> Dict[str, tuple]:
        """A point-in-time copy of the policy's per-shard load gauges.

        Static policies expose no gauges and return an empty dict.
        """
        return {}


class Crc32Dispatcher(Dispatcher):
    """The exact legacy dispatch: ``crc32(primary keyword) % n_shards``.

    The primary keyword is the lexicographically smallest resolved name
    — the mapping the pool shipped with before dispatch became
    pluggable, byte-for-byte.  Static by design: the candidate set is
    deliberately *ignored*, so a query whose shard is down heals it (or
    fails fast while it is drained or degraded) rather than silently
    moving — which is
    what keeps recorded replays and chaos fault plans deterministic.
    """

    name = "crc32"

    def peek(
        self,
        names: Sequence[str],
        candidates: Optional[Iterable[int]] = None,
    ) -> int:
        """``shard_of_keyword`` of the smallest name; candidates ignored."""
        return shard_of_keyword(min(names), self.n_shards)

    def homes_of_name(
        self,
        name: str,
        candidates: Optional[Iterable[int]] = None,
    ) -> Tuple[int, ...]:
        """The one crc32 owner of ``name`` (legacy warm routing)."""
        return (shard_of_keyword(name, self.n_shards),)


#: EWMA latency (seconds) that weighs a shard down as much as one extra
#: in-flight request.  50 ms: roughly one cold multi-keyword query.
_EWMA_LOAD_SCALE = 0.05

#: Cap on remembered resident keywords per shard (a routing hint, not a
#: cache: stale entries cost locality, never correctness).
_RESIDENT_LIMIT = 128


class RendezvousDispatcher(Dispatcher):
    """Weighted rendezvous hashing + hot-keyword replication + 2-choices.

    For each keyword every shard gets a deterministic pseudo-random
    draw ``u = h(keyword, shard)`` in (0, 1); a shard's score is
    ``weight / -ln(u)`` (weighted highest-random-weight hashing) and the
    keyword's home is the highest-scoring *candidate* shard.  With equal
    weights this is classic HRW: removing a shard remaps only the ~1/N
    keywords it owned, restoring it remaps exactly those back, and the
    mapping is identical across processes (the draw is a keyed blake2b
    digest, never the salted builtin ``hash``).

    Three extensions target Zipf skew:

    * **Live weights.**  Each shard's weight decays with its in-flight
      request depth and EWMA latency — the dispatcher-side mirror of
      the ``ServerStats``/``PoolHealth`` gauges, maintained by the
      pool via :meth:`begin`/:meth:`complete` so no stats round-trip
      sits on the dispatch path.  An idle pool has all-equal weights,
      which is the frozen-weights regime the determinism and
      minimal-disruption properties are pinned under.
    * **Hot-keyword replication.**  A decayed :class:`FrequencySketch`
      tracks primary-keyword frequency; the top-``hot_top`` names with
      count >= ``hot_min_count`` count as hot, and a hot primary may be
      served by any of its ``hot_replicas`` best-scoring shards —
      ``warm()`` pre-loads all of them via :meth:`homes_of_name` — so
      head traffic fans out instead of serializing.
    * **Power-of-two-choices.**  A multi-keyword query is also validly
      homed on the top-scoring shard of each *other* requested keyword,
      and on any candidate where a requested keyword is already
      resident (tracked from past routing/warm decisions).  The final
      pick is the least-loaded of the two best-scoring valid homes
      (in-flight depth, then assigned-query count, then EWMA latency,
      then score order) — classic 2-choices, which keeps per-shard
      query counts within a small factor of the mean.

    Correctness never depends on the choice: every worker serves the
    same immutable index, so answers are bit-identical whichever
    replica answers — the property suite pins exactly that, including
    per-query I/O accounting.
    """

    name = "rendezvous"

    def __init__(
        self,
        n_shards: int,
        *,
        hot_top: int = 4,
        hot_replicas: int = 2,
        hot_min_count: float = 3.0,
        ewma_alpha: float = 0.2,
        sketch: Optional[FrequencySketch] = None,
    ) -> None:
        super().__init__(n_shards)
        check_positive_int("hot_top", hot_top)
        check_positive_int("hot_replicas", hot_replicas)
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.hot_top = hot_top
        self.hot_replicas = min(hot_replicas, n_shards)
        self.hot_min_count = hot_min_count
        self.ewma_alpha = ewma_alpha
        self._sketch = sketch if sketch is not None else FrequencySketch()
        self._lock = threading.Lock()
        self._assigned = [0] * n_shards
        self._inflight = [0] * n_shards
        self._ewma = [0.0] * n_shards
        self._resident: List[Dict[str, None]] = [{} for _ in range(n_shards)]

    # -- scoring -------------------------------------------------------
    @staticmethod
    def _draw(name: str, shard: int) -> float:
        """The (keyword, shard) pseudo-random draw, uniform in (0, 1)."""
        digest = hashlib.blake2b(
            f"{name}\x1f{shard}".encode("utf-8"), digest_size=8
        ).digest()
        return (int.from_bytes(digest, "big") + 1) / (2**64 + 2)

    def _weight(self, shard: int) -> float:
        """Live shard weight: decays with in-flight depth + EWMA latency."""
        return 1.0 / (
            1.0 + self._inflight[shard] + self._ewma[shard] / _EWMA_LOAD_SCALE
        )

    def _rank(self, name: str, candidates: Sequence[int]) -> List[int]:
        """Candidates by descending weighted rendezvous score for ``name``."""
        return sorted(
            candidates,
            key=lambda s: (-(self._weight(s) / -math.log(self._draw(name, s))), s),
        )

    # -- choice (lock held) --------------------------------------------
    def _choose(self, names: Sequence[str], candidates: List[int]) -> int:
        primary = min(names)
        ranking = self._rank(primary, candidates)
        hot = self._sketch.hot(self.hot_top, min_count=self.hot_min_count)
        n_replicas = self.hot_replicas if primary in hot else 1
        homes: List[int] = list(ranking[:n_replicas])
        for name in names:
            if name != primary:
                top = self._rank(name, candidates)[0]
                if top not in homes:
                    homes.append(top)
        for shard in candidates:
            if shard not in homes and any(
                name in self._resident[shard] for name in names
            ):
                homes.append(shard)
        if len(homes) == 1:
            return homes[0]
        preference = {shard: pos for pos, shard in enumerate(ranking)}
        homes.sort(key=lambda shard: preference[shard])
        # Power-of-two-choices among the best-scoring valid homes; a hot
        # primary widens the window to its whole replica set.
        window = homes[: max(2, n_replicas)]
        return min(
            window,
            key=lambda shard: (
                self._inflight[shard],
                self._assigned[shard],
                self._ewma[shard],
                preference[shard],
            ),
        )

    def _note_resident(self, shard: int, names: Iterable[str]) -> None:
        resident = self._resident[shard]
        for name in names:
            resident.pop(name, None)
            resident[name] = None
        while len(resident) > _RESIDENT_LIMIT:
            resident.pop(next(iter(resident)))

    # -- Dispatcher API ------------------------------------------------
    def peek(
        self,
        names: Sequence[str],
        candidates: Optional[Iterable[int]] = None,
    ) -> int:
        """The shard this query would route to now (pure, no recording)."""
        with self._lock:
            return self._choose(names, self._candidate_list(candidates))

    def route(
        self,
        names: Sequence[str],
        candidates: Optional[Iterable[int]] = None,
    ) -> int:
        """Choose and record: sketch the primary, count the assignment.

        The choice uses the *pre-call* state (so it equals an
        immediately preceding :meth:`peek`); only then is the primary
        keyword observed in the hot sketch, the assignment counted, and
        every requested keyword marked resident on the chosen shard.
        """
        with self._lock:
            shards = self._candidate_list(candidates)
            shard = self._choose(names, shards)
            self._sketch.observe(min(names))
            self._assigned[shard] += 1
            self._note_resident(shard, names)
            return shard

    def homes_of_name(
        self,
        name: str,
        candidates: Optional[Iterable[int]] = None,
    ) -> Tuple[int, ...]:
        """The shard(s) ``warm(name)`` should pre-load: all live replicas.

        A cold keyword has one home (its rendezvous winner); a hot one
        returns its full ``hot_replicas``-wide set.  The returned shards
        are also marked resident, since the caller is about to load the
        keyword there.
        """
        with self._lock:
            ranking = self._rank(name, self._candidate_list(candidates))
            hot = self._sketch.hot(self.hot_top, min_count=self.hot_min_count)
            n_replicas = self.hot_replicas if name in hot else 1
            homes = tuple(ranking[:n_replicas])
            for shard in homes:
                self._note_resident(shard, (name,))
            return homes

    def begin(self, shard: int, units: int = 1) -> None:
        """Raise ``shard``'s in-flight gauge by ``units``."""
        with self._lock:
            self._inflight[shard] += units

    def complete(self, shard: int, seconds: float, units: int = 1) -> None:
        """Drop the in-flight gauge and fold latency into the EWMA."""
        with self._lock:
            self._inflight[shard] = max(0, self._inflight[shard] - units)
            per_query = seconds / max(1, units)
            self._ewma[shard] += self.ewma_alpha * (per_query - self._ewma[shard])

    def load_snapshot(self) -> Dict[str, tuple]:
        """Per-shard gauges + current hot set, for tests and operators."""
        with self._lock:
            return {
                "assigned": tuple(self._assigned),
                "inflight": tuple(self._inflight),
                "ewma_latency": tuple(self._ewma),
                "hot": self._sketch.hot(
                    self.hot_top, min_count=self.hot_min_count
                ),
            }


def make_dispatcher(
    dispatch: Union[str, Dispatcher], n_shards: int
) -> Dispatcher:
    """Resolve a pool's ``dispatch=`` argument into a dispatcher.

    Accepts a policy name (``"crc32"`` — the exact legacy static map —
    or ``"rendezvous"``) or an already constructed :class:`Dispatcher`,
    whose ``n_shards`` must match the pool's.

    Raises
    ------
    ValueError
        On an unknown policy name or a shard-count mismatch.
    """
    if isinstance(dispatch, Dispatcher):
        if dispatch.n_shards != n_shards:
            raise ValueError(
                f"dispatcher is sized for {dispatch.n_shards} shards, "
                f"pool has {n_shards}"
            )
        return dispatch
    if dispatch == "crc32":
        return Crc32Dispatcher(n_shards)
    if dispatch == "rendezvous":
        return RendezvousDispatcher(n_shards)
    raise ValueError(
        f"unknown dispatch {dispatch!r}: expected 'crc32', 'rendezvous', "
        "or a Dispatcher instance"
    )
