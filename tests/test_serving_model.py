"""The serving contract, checked by one model (repro.core.process_pool).

A hypothesis state machine drives one long-lived
:class:`SupervisedServerPool` per example through every public operation
and every chaos fault, and compares it after each step with a model: one
in-process :class:`KBTIMServer` per shard (rebuilt cold whenever that
shard restarts) plus the shard states the supervision constants predict.
After every step:

* answers are bit-identical to the owning shard's model server, and to
  a sequential reader of the same file (so batching and caching never
  change an answer);
* each query's I/O equals the model's, and per shard the worker's I/O
  is its open, warm and failed-request reads plus the I/O its answers
  were charged;
* ``health()`` makes no worker round trip, never raises on an open pool
  and reports the predicted state, liveness and counters of every shard;
* every error is the :mod:`repro.errors` class the model predicts;
* after ``close()`` no child process, ``kbtim-*`` segment, pipe or
  socket of the pool remains, and every serving method fails fast.

A failing example notes its faults as ``FaultPlan`` JSON, replayable
with ``repro replay --chaos``.  Tier-1 runs a fixed, derandomized budget
over every configuration; ``--hypothesis-profile=serving-model``
(registered in ``conftest.py``) runs a randomized, larger one.
"""

import dataclasses
import json
import multiprocessing
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, note, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)
from leaks import kbtim_shm_entries, pool_descriptors

from repro.core import process_pool
from repro.core.catalog import open_index
from repro.core.chaos import ChaosController, FaultEvent, FaultPlan
from repro.core.process_pool import (
    SupervisedServerPool,
    _WorkerHandle,
    shard_of_keyword,
)
from repro.core.query import KBTIMQuery, resolve_keyword
from repro.core.server import (
    SHARD_DEGRADED,
    SHARD_DRAINED,
    SHARD_READY,
    SHARD_RESTARTING,
    SNAPSHOT_SCHEMA,
    KBTIMServer,
)
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServerError,
    ShardUnavailableError,
)
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool

pytestmark = pytest.mark.chaos

NAMES = ("book", "car", "food", "journal", "music", "software", "sport", "travel")
#: Keyword refs: mostly names, then topic ids, rarely an unknown name or id.
REFS = NAMES * 3 + tuple(range(8)) + ("nosuchtopic", 10_000)
QUERIES = st.builds(
    lambda refs, k: KBTIMQuery(tuple(refs), k),
    st.lists(st.sampled_from(REFS), min_size=1, max_size=3, unique=True),
    st.sampled_from((3, 8, 1) * 3 + (999,)),  # 999 is over the index's K
)
#: Batch members: half of them overlap on a few keywords, so a batch
#: shares its loads (each charged to the first query that asked).
MEMBERS = st.one_of(
    QUERIES,
    st.builds(
        lambda refs, k: KBTIMQuery(tuple(refs), k),
        st.lists(st.sampled_from(NAMES[:4]), min_size=1, max_size=2, unique=True),
        st.sampled_from((3, 8)),
    ),
)
SHARDS = st.integers(0, 2)  # taken modulo the pool's worker count
COUNTERS = ("queries", "keyword_hits", "keyword_misses", "warm_loads")


class Refused(Exception):
    """The model's prediction that a call fails with ``cls``."""

    def __init__(self, cls, shards=(), match=None):
        super().__init__(cls.__name__)
        self.cls, self.shards, self.match = cls, tuple(shards), match


def _untimed(answer):
    """An answer with its wall time zeroed: everything else must match."""
    stats = dataclasses.replace(answer.stats, elapsed_seconds=0.0)
    return dataclasses.replace(answer, stats=stats)


def _outcome(call):
    """``(result, error)`` of one call; ``error`` is the library error."""
    try:
        return call(), None
    except ReproError as exc:
        return None, exc


class _Shard:
    """The model of one shard: its server, process, record and I/O."""

    def __init__(self, path: str, cache_keywords: int) -> None:
        self.server = KBTIMServer(
            open_index(path, pool=BufferPool(process_pool._POOL_PAGES)),
            cache_keywords=cache_keywords,
        )
        self.alive, self.closed, self.poisoned = True, False, False
        #: Reads no answer was charged (open, warm, failed requests).
        self.unattributed = self.server.index.stats.snapshot()
        self.attributed = IOStats()

    @property
    def down(self) -> bool:
        return self.poisoned or not self.alive

    def run(self, call, *, answers=True):
        """Run ``call(server)``; the reads of a failing call, or of one
        that returns no answers to charge them to, stay unattributed."""
        before = self.server.index.stats.snapshot()
        try:
            result = call(self.server)
        except ReproError as exc:
            self.unattributed.add(self.server.index.stats.delta(before))
            raise Refused(type(exc)) from None
        if not answers:
            self.unattributed.add(self.server.index.stats.delta(before))
        return result


class ServingModel(RuleBasedStateMachine):
    def __init__(self, paths) -> None:
        super().__init__()
        self.paths = paths
        self.pool = None
        self.events = []
        self.n_queries = 0
        self.patches = ExitStack()
        self.children = set(multiprocessing.active_children())
        self.segments = kbtim_shm_entries()
        self.descriptors = pool_descriptors()

    # -- setup and teardown --
    @initialize(
        kind=st.sampled_from(["rr", "irr"]),
        n_workers=st.sampled_from([1, 2, 3]),
        max_inflight=st.sampled_from([None, 2]),
        cache_keywords=st.sampled_from([2, 64]),
        request_timeout=st.sampled_from([None, 60.0]),
        budget=st.sampled_from([1, process_pool._RESTART_BUDGET]),
        backoff=st.sampled_from([0.0, 3600.0]),
        retries=st.sampled_from([0, process_pool._MAX_RETRIES]),
    )
    def open_pool(self, kind, n_workers, max_inflight, cache_keywords, **constants):
        """Open the pool; the supervision constants are the model's too."""
        CONFIGS.add((kind, n_workers, max_inflight))
        patch = self.patches.enter_context
        patch(mock.patch.object(process_pool, "_RESTART_BUDGET", constants["budget"]))
        patch(mock.patch.object(process_pool, "_RESTART_BACKOFF", constants["backoff"]))
        patch(mock.patch.object(process_pool, "_MAX_RETRIES", constants["retries"]))
        patch(mock.patch.object(process_pool, "_BACKOFF_MAX", 3600.0))
        patch(mock.patch.object(process_pool, "_BUDGET_RESET_AFTER", 1e9))
        self.requests = 0
        request = _WorkerHandle.request

        def counted(handle, *args, **kwargs):
            self.requests += 1
            return request(handle, *args, **kwargs)

        patch(mock.patch.object(_WorkerHandle, "request", counted))
        self.path, self.n, self.max_inflight = self.paths[kind], n_workers, max_inflight
        self.budget, self.backoff = constants["budget"], constants["backoff"]
        self.cache_keywords = cache_keywords
        self.reference = open_index(self.path)
        self.topic_names = self.reference.topic_names
        self.shards = [_Shard(self.path, cache_keywords) for _ in range(self.n)]
        self.drained = [False] * self.n
        self.degraded = [False] * self.n
        self.window = [0] * self.n  # restarts in the failure window
        self.restarts = [0] * self.n
        self.failed = [False] * self.n  # last_error is set
        self.retries = self.sheds = 0
        self.exhausted = False
        self.pool = SupervisedServerPool(
            self.path,
            n_workers=self.n,
            cache_keywords=cache_keywords,
            request_timeout=constants["request_timeout"],
            max_inflight=max_inflight,
        )

    def teardown(self):
        try:
            if self.events:
                note(f"faults: {FaultPlan(events=tuple(self.events)).to_json()}")
            if self.pool is not None:
                self.pool.close()
                self.pool.close()  # idempotent
                for call in (
                    lambda: self.pool.query(KBTIMQuery(("music",), 1)),
                    self.pool.health,
                    lambda: self.pool.warm(["music"]),
                    lambda: self.pool.restart_worker(0),
                ):
                    with pytest.raises(ServerError, match="closed"):
                        call()
        finally:
            if self.pool is not None:
                self.reference.close()
                for shard in self.shards:
                    shard.server.index.close()
            self.patches.close()
        leaked = set(multiprocessing.active_children()) - self.children
        assert not leaked, f"close() left processes: {leaked}"
        assert kbtim_shm_entries() == self.segments
        assert pool_descriptors() == self.descriptors

    # -- the model of the pool's supervision --
    def state(self, s: int) -> str:
        if self.drained[s]:
            return SHARD_DRAINED
        if self.degraded[s]:
            return SHARD_DEGRADED
        return SHARD_RESTARTING if self.shards[s].down else SHARD_READY

    def restart(self, s: int) -> None:
        self.shards[s].server.index.close()
        self.shards[s] = _Shard(self.path, self.cache_keywords)
        self.restarts[s] += 1

    def heal(self, s: int) -> None:
        """``_ensure_ready``: fail fast, or restart a down shard."""
        if self.drained[s] or self.degraded[s]:
            raise Refused(ShardUnavailableError, [s])
        if not self.shards[s].down:
            return
        if self.window[s] >= self.budget:
            self.degraded[s] = True
            raise Refused(ShardUnavailableError, [s])
        if self.window[s] and self.backoff:
            raise Refused(ShardUnavailableError, [s])
        self.window[s] += 1
        self.restart(s)

    def admit(self, units: int) -> None:
        over = self.max_inflight is not None and units > self.max_inflight
        if self.exhausted or over:
            self.sheds += 1
            raise Refused(OverloadedError)

    def home(self, query: KBTIMQuery) -> int:
        """The routing rule: crc32 of the smallest resolved name."""
        try:
            names = [resolve_keyword(self.topic_names, kw) for kw in query.keywords]
        except ReproError as exc:
            raise Refused(type(exc)) from None
        return shard_of_keyword(min(names), self.n)

    def fire(self, kind: str, shard=None, seconds=0.0) -> str:
        """Fire one fault through the chaos controller; returns its effect."""
        event = FaultEvent(kind, self.n_queries, shard=shard, seconds=seconds)
        self.events.append(event)
        chaos = ChaosController(FaultPlan(events=(event,)), self.pool)
        chaos.before_query(self.n_queries)
        return chaos.fired[0]["effect"]

    # -- checks --
    def check(self, got, error, predict):
        """Run the model's prediction and compare the pool's outcome."""
        try:
            want, refused = predict(), None
        except Refused as exc:
            want, refused = None, exc
        if refused is None:
            assert error is None, f"model answered, pool raised {error!r}"
            return want
        assert type(error) is refused.cls, f"expected {refused.cls}, got {error!r}"
        if refused.cls is ShardUnavailableError:
            assert error.shard == refused.shards[0]
            waits = self.state(error.shard) == SHARD_RESTARTING
            assert (error.retry_after is not None) == waits
        assert refused.match is None or refused.match in str(error)
        for s in refused.shards if len(refused.shards) > 1 else ():
            assert f"shard {s}" in str(error)
        return None

    def same_answer(self, query, got, want, s: int) -> None:
        """``got`` is the model's answer, I/O included, and a sequential
        reader's; its I/O is charged to shard ``s``."""
        assert _untimed(got) == _untimed(want)
        seq = self.reference.query(query)
        assert (got.seeds, got.theta) == (seq.seeds, seq.theta)
        assert got.marginal_coverages == seq.marginal_coverages
        self.shards[s].attributed.add(got.stats.io)

    # -- rules: serving traffic --
    @rule(query=QUERIES, fault=st.sampled_from([None, "spent", "shed"]))
    def query(self, query, fault):
        """One query, alone or with a fault: a ``spent`` deadline heals the
        home shard, then fails before anything is sent; ``shed`` exhausts
        admission for the query, then capacity returns."""
        if fault == "shed":
            self.fire("exhaust", seconds=3600.0)
            self.exhausted = True
        self._query(query, False, timeout=0.0 if fault == "spent" else None)
        if fault == "shed":
            self.fire("exhaust", seconds=0.0)
            self.exhausted = False

    @rule(query=QUERIES)
    def query_dies_midrequest(self, query):
        """The home worker is SIGKILLed just before the request and its
        death is seen only mid-request, so the query retries on a restart."""
        try:
            home = self.home(query)
        except Refused:
            home = None
        death = home is not None and self.state(home) == SHARD_READY
        if death:
            self.fire("kill", home)
            handle = self.pool._workers[home]
            real, lie = handle._running, iter([True])
            handle._running = lambda: next(lie, False) or real()
        self._query(query, death)

    def _query(self, query, death, timeout=None):
        got, error = _outcome(lambda: self.pool.query(query, timeout=timeout))
        self.n_queries += 1
        home = []

        def predict():
            self.admit(1)
            home.append(self.home(query))
            s = home[0]
            self.heal(s)
            if timeout is not None:
                raise Refused(DeadlineExceededError)
            if death:
                self.shards[s].alive, self.failed[s] = False, True
                if process_pool._MAX_RETRIES < 1:
                    raise Refused(ServerError, [s], match="died")
                self.retries += 1
                self.heal(s)
            return self.shards[s].run(lambda server: server.query(query))

        want = self.check(got, error, predict)
        if want is not None:
            self.same_answer(query, got, want, home[0])

    @rule(queries=st.lists(MEMBERS, min_size=1, max_size=4))
    def query_batch(self, queries):
        batch = self.pool.query_batch
        assert batch([]) == []  # not admitted, sent nowhere
        got, error = _outcome(lambda: batch(queries))
        self.n_queries += 1
        answered = {}  # position -> (shard, model answer)

        def predict():
            self.admit(len(queries))
            homes = [self.home(q) for q in queries]
            first = None
            for s in dict.fromkeys(homes):
                sub = [pos for pos, home in enumerate(homes) if home == s]
                try:
                    self.heal(s)
                    part = [queries[pos] for pos in sub]
                    run = self.shards[s].run
                    answers = run(lambda server: server.query_batch(part))
                except Refused as exc:
                    first = first or exc  # every other shard still runs
                    continue
                answered.update((pos, (s, a)) for pos, a in zip(sub, answers))
            if first is not None:
                raise first
            return [answered[pos][1] for pos in range(len(queries))]

        want = self.check(got, error, predict)
        if want is not None:
            assert len(got) == len(want)
        for pos, (s, model) in answered.items():
            if want is None:  # the pool dropped this shard's answers
                self.shards[s].attributed.add(model.stats.io)
            else:
                self.same_answer(queries[pos], got[pos], model, s)

    # -- rules: administration --
    def fanout(self, requests):
        """``_fanout``: every shard is tried; failures are raised after."""
        failures = []
        for s, call in requests:
            try:
                self.heal(s)
                self.shards[s].run(call, answers=False)
            except Refused as exc:
                failures.append((s, exc))
        if len(failures) == 1:
            raise failures[0][1]
        if failures:
            shards = [s for s, _exc in failures]
            raise Refused(ServerError, shards, match="failed during fan-out")

    @rule(refs=st.lists(st.sampled_from(NAMES + tuple(range(8))), max_size=4))
    def warm(self, refs):
        _got, error = _outcome(lambda: self.pool.warm(refs))
        owners = {}  # shard -> the names it owns, in call order
        for name in (resolve_keyword(self.topic_names, ref) for ref in refs):
            owners.setdefault(shard_of_keyword(name, self.n), []).append(name)
        calls = [(s, lambda server, own=owners[s]: server.warm(own)) for s in owners]
        self.check(None, error, lambda: self.fanout(sorted(calls, key=lambda c: c[0])))

    @rule()
    def evict_all(self):
        _got, error = _outcome(self.pool.evict_all)
        calls = [(s, lambda server: server.evict_all()) for s in range(self.n)]
        self.check(None, error, lambda: self.fanout(calls))

    @rule(
        op=st.sampled_from(["drain", "restore", "restart_worker"]),
        shards=st.lists(SHARDS, min_size=1, max_size=2),
    )
    def rotate(self, op, shards):
        """A rolling-restart step on one or two shards: ``drain`` takes a
        shard out of rotation, ``restore`` returns it with a fresh worker
        and a fresh budget, ``restart_worker`` swaps its worker only."""
        for s in dict.fromkeys(shard % self.n for shard in shards):
            getattr(self.pool, op)(s)
            if op == "drain":
                if not self.drained[s]:
                    self.drained[s] = True
                    self.shards[s].alive, self.shards[s].closed = False, True
                continue
            self.restart(s)
            if op == "restore":
                self.drained[s] = self.degraded[s] = self.failed[s] = False
                self.window[s] = 0

    @rule(kind=st.sampled_from(["kill", "delay", "drop"]), shard=SHARDS)
    def fault(self, kind, shard):
        """``kill`` SIGKILLs a shard's worker; a reply that comes late
        (``delay``) or never (``drop``) misses the zero deadline and
        poisons a live, framed pipe."""
        s = shard % self.n
        effect = self.fire(kind, s, seconds=1.0 if kind == "delay" else 0.0)
        model = self.shards[s]
        if kind == "kill":
            model.alive = False  # a drained (closed) handle is not alive either
        elif model.closed or model.down:
            assert effect.startswith("not delivered")
        else:
            assert "poisoned" in effect
            model.poisoned = True

    # -- invariants, after every step --
    @invariant()
    def health_is_the_model(self):
        if self.pool is None:
            return
        before = self.requests
        health = self.pool.health()
        assert self.requests == before  # parent-side: no worker round trip
        for s, shard in enumerate(health.shards):
            assert shard.state == self.state(s)
            assert shard.alive == self.shards[s].alive
            assert (shard.rss_bytes > 0) == shard.alive
            assert (shard.restarts, shard.inflight) == (self.restarts[s], 0)
            assert (shard.last_error is not None) == self.failed[s]
        counters = (health.restarts, health.retries, health.sheds, health.inflight)
        assert counters == (sum(self.restarts), self.retries, self.sheds, 0)
        assert health.max_inflight == self.max_inflight

    @invariant()
    def snapshot_is_the_model(self):
        if self.pool is None:
            return
        before = self.requests
        snapshot = self.pool.snapshot()
        ready = [s for s in range(self.n) if self.state(s) == SHARD_READY]
        assert self.requests - before == len(ready)  # one round trip each
        for s, part in enumerate(snapshot.workers):
            if self.state(s) != SHARD_READY:
                assert part is None
                continue
            model = self.shards[s]
            want = model.server.snapshot()
            for name in COUNTERS:
                assert getattr(part.stats, name) == getattr(want.stats, name)
            assert part.cached_keywords == want.cached_keywords
            charged = model.unattributed.snapshot()
            charged.add(model.attributed)
            assert part.io == want.io == charged
        answered = [part for part in snapshot.workers if part is not None]
        for name in COUNTERS:
            total = sum(getattr(part.stats, name) for part in answered)
            assert getattr(snapshot.stats, name) == total
        supervision = (snapshot.stats.restarts, snapshot.stats.retries)
        assert supervision == (sum(self.restarts), self.retries)
        assert snapshot.stats.sheds == self.sheds
        document = json.loads(json.dumps(snapshot.to_dict()))
        assert document["schema"] == SNAPSHOT_SCHEMA
        assert len(document["workers"]) == self.n


#: ``(kind, n_workers, max_inflight)`` of every pool the model opened.
CONFIGS = set()


def _settings():
    if settings.get_current_profile_name() == "serving-model":
        return settings(settings.default, derandomize=False)
    return settings(
        max_examples=64,
        stateful_step_count=20,
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.explicit, Phase.generate, Phase.shrink),
        suppress_health_check=list(HealthCheck),
    )


def test_pool_is_the_model(served_paths):
    CONFIGS.clear()
    run_state_machine_as_test(lambda: ServingModel(served_paths), settings=_settings())
    # The budget reaches both index kinds and every value of the
    # arguments a caller sets (start_method: see test_transport.py).
    assert {c[0] for c in CONFIGS} == {"rr", "irr"}
    assert {c[1] for c in CONFIGS} == {1, 2, 3}
    assert {c[2] for c in CONFIGS} == {None, 2}
