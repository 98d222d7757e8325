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
  and reports the predicted state, liveness, counters, restart window
  and last error of every shard;
* an open pool names no ``kbtim-*`` segment in ``/dev/shm`` and maps
  none: its only resources are its processes and pipes;
* every error is the :mod:`repro.errors` class the model predicts;
* after ``close()`` no child process, ``kbtim-*`` segment, pipe or
  socket of the pool remains, and every serving method fails fast.

Scenarios are data: each file in ``tests/data/serving_traces/`` is an
``open_pool`` draw plus a list of ``[step, {args}]``, and ``test_trace``
replays it through the same model, invariants after every step.  A
failing hypothesis example notes its own trace in that format, so a
shrunk counterexample becomes a regression test by saving the note
there.  Tier-1 runs a fixed, derandomized budget over every
configuration; ``--hypothesis-profile=serving-model`` (registered in
``conftest.py``) runs a randomized, larger one.
"""

import dataclasses
import functools
import json
import multiprocessing
import pathlib
import shutil
import threading
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, note, settings
from hypothesis import strategies as st
from hypothesis.control import currently_in_test_context
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)
from leaks import kbtim_mappings, kbtim_shm_entries, pool_descriptors

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
from repro.datasets import workload
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServerError,
    ShardUnavailableError,
)
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool
from repro.storage.segments import SegmentReader

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
DIED = "died unexpectedly (exit code -9)"  # a SIGKILLed worker
TRACES = pathlib.Path(__file__).parent / "data" / "serving_traces"


class Refused(Exception):
    """The model's prediction that a call fails with ``cls``, with a
    message that contains every string in ``match``."""

    def __init__(self, cls, shards=(), match=()):
        super().__init__(cls.__name__)
        self.cls, self.shards, self.match = cls, tuple(shards), tuple(match)


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


def _encoded(value):
    """A step argument as JSON: a query is ``{"keywords": [...], "k": n}``."""
    if isinstance(value, KBTIMQuery):
        return {"keywords": list(value.keywords), "k": value.k}
    if isinstance(value, dict):
        return {key: _encoded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encoded(item) for item in value]
    return value


def _decoded(value):
    """The inverse of :func:`_encoded` (a fault event stays a dict)."""
    if isinstance(value, dict):
        if "keywords" in value:
            return KBTIMQuery(tuple(value["keywords"]), value["k"])
        return {key: _decoded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decoded(item) for item in value]
    return value


def dump_trace(init, steps, replaces=None) -> str:
    """A trace document, one step per line, as committed under ``TRACES``."""
    rows = ",\n".join(f"  {json.dumps(step)}" for step in steps)
    head = f'{{"replaces": {json.dumps(replaces)},\n "init": {json.dumps(init)},\n'
    return head + ' "steps": [\n' + (rows + "\n" if rows else "") + " ]}\n"


def step(method):
    """A model step: recorded in the model's trace before it runs."""

    @functools.wraps(method)
    def recorded(self, **args):
        self.trace.append([method.__name__, _encoded(args)])
        return method(self, **args)

    return recorded


class _Shard:
    """The model of one shard: its server, process, record and I/O."""

    def __init__(self, path: str, cache_keywords: int) -> None:
        self.server = KBTIMServer(
            open_index(path, pool=BufferPool(process_pool._POOL_PAGES)),
            cache_keywords=cache_keywords,
        )
        self.alive, self.closed, self.poisoned = True, False, False
        self.aged = False  # served a whole failure window
        #: Reads no answer was charged (open, warm, failed requests).
        self.unattributed = self.server.index.stats.snapshot()
        self.attributed = IOStats()

    @property
    def down(self) -> bool:
        return self.poisoned or not self.alive

    @property
    def failure(self) -> str:
        """What the pool records as the last error of this down shard."""
        if self.poisoned:
            return "pipe is poisoned after a deadline miss"
        return DIED  # every death here is a SIGKILL

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
        self.init, self.trace = {}, []
        self.patches = ExitStack()
        self.children = set(multiprocessing.active_children())
        self.segments, self.mappings = kbtim_shm_entries(), kbtim_mappings()
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
        """Open the pool; the supervision constants are the model's too.
        An argument below 1 is refused before anything is started."""
        CONFIGS.add((kind, n_workers, max_inflight))
        self.init = dict(
            kind=kind,
            n_workers=n_workers,
            max_inflight=max_inflight,
            cache_keywords=cache_keywords,
            **constants,
        )
        options = dict(
            n_workers=n_workers,
            cache_keywords=cache_keywords,
            request_timeout=constants["request_timeout"],
            max_inflight=max_inflight,
        )
        if min(n_workers, cache_keywords, max_inflight or 1) < 1:
            with pytest.raises(ValueError):
                SupervisedServerPool(self.paths[kind], **options)
            return
        patch = self.patches.enter_context
        patch(mock.patch.object(process_pool, "_RESTART_BUDGET", constants["budget"]))
        patch(mock.patch.object(process_pool, "_RESTART_BACKOFF", constants["backoff"]))
        patch(mock.patch.object(process_pool, "_MAX_RETRIES", constants["retries"]))
        patch(mock.patch.object(process_pool, "_BACKOFF_MAX", 3600.0))
        patch(mock.patch.object(process_pool, "_BUDGET_RESET_AFTER", 1e9))
        #: Every request as ``(shard, method, payload)``, in the order its
        #: worker took it (requests to one worker take its lock in turn).
        self.taken = []
        request = _WorkerHandle.request
        locks = [threading.Lock() for _ in range(n_workers)]

        def taken(handle, method, payload=None, **kwargs):
            with locks[handle.worker_id]:
                self.taken.append((handle.worker_id, method, payload))
                return request(handle, method, payload, **kwargs)

        patch(mock.patch.object(_WorkerHandle, "request", taken))
        self.kind, self.path, self.n = kind, self.paths[kind], n_workers
        self.max_inflight = max_inflight
        self.budget, self.backoff = constants["budget"], constants["backoff"]
        self.cache_keywords = cache_keywords
        self.reference = open_index(self.path)
        self.topic_names = self.reference.topic_names
        self.shards = [_Shard(self.path, cache_keywords) for _ in range(self.n)]
        self.drained = [False] * self.n
        self.degraded = [False] * self.n
        self.window = [0] * self.n  # restarts in the failure window
        self.restarts = [0] * self.n
        #: What each shard's ``last_error`` contains (``None``: unset).
        self.errors = [None] * self.n
        self.retries = self.sheds = 0
        self.exhausted = False
        self.pool = SupervisedServerPool(self.path, **options)

    def teardown(self):
        try:
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
            if currently_in_test_context():
                note(f"trace:\n{dump_trace(self.init, self.trace)}")
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
        """``_ensure_ready``: restart a down shard, or fail fast with an
        error that names the shard's state."""
        if self.shards[s].down and not (self.drained[s] or self.degraded[s]):
            self.errors[s] = self.shards[s].failure
            if self.shards[s].aged:
                self.window[s] = 0
            if self.window[s] >= self.budget:
                self.degraded[s] = True
            elif not (self.window[s] and self.backoff):
                self.window[s] += 1
                self.restart(s)
        state = self.state(s)
        if state == SHARD_DEGRADED:
            # The operator is told why: the failure that spent the budget.
            last = (f"last error: ServerError: server worker {s} ", self.errors[s])
            raise Refused(ShardUnavailableError, [s], (f"shard {s} is {state}", *last))
        if state != SHARD_READY:
            raise Refused(ShardUnavailableError, [s], [f"shard {s} is {state}"])

    def serve(self, s: int, call, dying=(), answers=True):
        """``_call_shard``: heal shard ``s`` and run ``call`` on its model
        server; a worker in ``dying`` dies mid-request, and the request is
        retried on a restart while ``_MAX_RETRIES`` allows."""
        self.heal(s)
        if s in dying:
            self.shards[s].alive, self.errors[s] = False, DIED
            if process_pool._MAX_RETRIES < 1:
                raise Refused(ServerError, [s], [DIED])
            if answers:  # admin fan-outs retry uncounted
                self.retries += 1
            self.heal(s)
        return self.shards[s].run(call, answers=answers)

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

    def reach(self, queries) -> set:
        """The shards a serving call sends ``queries`` to: none when it is
        shed or a keyword ref does not resolve."""
        units = len(queries)
        if self.exhausted or (self.max_inflight or units) < units:
            return set()
        try:
            return {self.home(query) for query in queries}
        except Refused:
            return set()

    def fire(self, kind: str, shard=None, seconds=0.0) -> str:
        """Fire one fault through the chaos controller; returns its effect."""
        chaos = ChaosController(
            FaultPlan(events=(FaultEvent(kind, 0, shard=shard, seconds=seconds),)),
            self.pool,
        )
        chaos.before_query(0)
        return chaos.fired[0]["effect"]

    def suffer(self, event: FaultEvent, effect: str) -> None:
        """The model's side of a fired fault.  ``kill`` SIGKILLs a worker;
        a reply that comes late (``delay``) or never (``drop``) misses the
        zero deadline and poisons a live, framed pipe; ``exhaust`` sheds
        every request until it is fired again with 0 seconds."""
        if event.kind == "exhaust":
            self.exhausted = event.seconds > 0
            return
        model = self.shards[event.shard]
        if event.kind == "kill":
            assert effect == f"worker {event.shard} killed (SIGKILL)"
            model.alive = False  # a drained (closed) handle is not alive either
        elif model.closed or model.down:
            assert effect.startswith("not delivered")
        else:
            assert "poisoned" in effect
            model.poisoned = True

    def kill_unnoticed(self, shards, reached) -> set:
        """SIGKILL every ready shard of ``shards`` that the next call
        ``reached``, hiding each death from one liveness probe: the call
        finds its worker dead mid-request.  Returns the shards killed."""
        dying = {s % self.n for s in shards} & set(reached)
        dying = {s for s in dying if self.state(s) == SHARD_READY}
        for s in dying:
            self.fire("kill", s)
            handle = self.pool._workers[s]
            real, lie = handle._running, iter([True])
            handle._running = lambda real=real, lie=lie: next(lie, False) or real()
        return dying

    # -- checks --
    def check(self, got, error, predict):
        """Run the model's prediction and compare the pool's outcome; a
        replay reports an error as its ``"<class>: <message>"`` string."""
        try:
            want, refused = predict(), None
        except Refused as exc:
            want, refused = None, exc
        if refused is None:
            assert error is None, f"model answered, pool raised {error!r}"
            return want
        message = str(error)
        if isinstance(error, str):
            assert message.startswith(f"{refused.cls.__name__}: "), message
        else:
            assert type(error) is refused.cls, f"expected {refused.cls}, got {error!r}"
            if refused.cls is ShardUnavailableError:
                s = error.shard
                assert s == refused.shards[0]
                if self.state(s) != SHARD_RESTARTING:
                    assert error.retry_after is None
                else:  # the backoff after the window's latest restart
                    wait = self.backoff * 2.0 ** (self.window[s] - 1)
                    assert 0 < error.retry_after <= wait
            if refused.cls is OverloadedError:
                assert error.retry_after > 0
        assert all(part in message for part in refused.match), message
        one = refused.cls is ServerError and len(refused.shards) == 1
        label = "worker" if one else "shard"
        assert all(f"{label} {s}" in message for s in refused.shards), message
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
    @step
    def query(self, query, fault=None):
        """One query, alone or with a fault: a ``spent`` deadline heals the
        home shard, then fails before anything is sent; ``shed`` exhausts
        admission for the query, then capacity returns."""
        if fault == "shed":
            self.fire("exhaust", seconds=3600.0)
            self.exhausted = True
        self._query(query, timeout=0.0 if fault == "spent" else None)
        if fault == "shed":
            self.fire("exhaust", seconds=0.0)
            self.exhausted = False

    @rule(query=QUERIES)
    @step
    def query_dies_midrequest(self, query):
        """The home worker is SIGKILLed just before the request and its
        death is seen only mid-request, so the query retries on a restart."""
        reached = self.reach([query])
        self._query(query, self.kill_unnoticed(reached, reached))

    def _query(self, query, dying=(), timeout=None, outcome=None):
        got, error = outcome or _outcome(
            lambda: self.pool.query(query, timeout=timeout)
        )
        home = []

        def predict():
            self.admit(1)
            home.append(self.home(query))
            if timeout is not None:
                self.heal(home[0])
                raise Refused(DeadlineExceededError)
            return self.serve(home[0], lambda server: server.query(query), dying)

        want = self.check(got, error, predict)
        if want is not None:
            self.same_answer(query, got, want, home[0])

    @rule(queries=st.lists(MEMBERS, min_size=1, max_size=4))
    @step
    def query_batch(self, queries, dies=()):
        """One batch; the worker of each shard in ``dies`` that the batch
        reaches dies mid-request."""
        batch = self.pool.query_batch
        assert batch([]) == []  # not admitted, sent nowhere
        dying = self.kill_unnoticed(dies, self.reach(queries))
        got, error = _outcome(lambda: batch(queries))
        answered = {}  # position -> (shard, model answer)

        def predict():
            self.admit(len(queries))
            homes = [self.home(q) for q in queries]
            first = None
            for s in dict.fromkeys(homes):
                sub = [pos for pos, home in enumerate(homes) if home == s]
                part = [queries[pos] for pos in sub]
                try:
                    answers = self.serve(
                        s, lambda server: server.query_batch(part), dying
                    )
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

    @step
    def replay(self, queries, threads=1, plan=()):
        """``repro.datasets.workload.replay``: one client thread, with
        ``plan``'s faults fired before their positions, or ``threads``
        clients and no plan.  Then each shard serves its queries in the
        order its worker took them, and a query may be shed only when
        more clients than ``max_inflight`` can be in flight.  The report's
        restart, retry and shed counts are the model's."""
        queries = [KBTIMQuery(q.keywords, q.k) for q in queries]  # one per position
        plan = FaultPlan(events=tuple(FaultEvent.from_dict(e) for e in plan))
        assert threads == 1 or not plan.events
        before, start = (sum(self.restarts), self.retries, self.sheds), len(self.taken)
        report = workload.replay(
            self.pool,
            queries,
            threads=threads,
            chaos=plan if plan.events else None,
            tolerate_errors=True,
        )
        order = list(range(len(queries)))
        if threads > 1:
            position = {id(query): pos for pos, query in enumerate(queries)}
            taken = self.taken[start:]
            served = [position[id(p)] for _s, method, p in taken if method == "query"]
            assert len(set(served)) == len(served)  # nothing died, nothing retried
            order = served + [pos for pos in order if pos not in set(served)]
        fired = iter(report.fault_events)
        for pos in order:
            for event in plan.events_at(pos):
                self.suffer(event, next(fired)["effect"])
            got, error = report.results[pos], report.errors[pos]
            if threads > (self.max_inflight or threads) and error and error.startswith(
                f"{OverloadedError.__name__}: "
            ):
                self.sheds += 1  # the other clients held the whole budget
                continue
            self._query(queries[pos], outcome=(got, error))
        now = (sum(self.restarts), self.retries, self.sheds)
        deltas = tuple(after - was for after, was in zip(now, before))
        assert (report.restarts, report.retries, report.sheds) == deltas

    # -- rules: administration --
    def fanout(self, requests, dying=()):
        """``_fanout``: every shard is tried; failures are raised after."""
        failures = []
        for s, call in requests:
            try:
                self.serve(s, call, dying, answers=False)
            except Refused as exc:
                failures.append((s, exc))
        if len(failures) == 1:
            raise failures[0][1]
        if failures:
            shards = [s for s, _exc in failures]
            raise Refused(ServerError, shards, ["failed during fan-out"])

    @rule(refs=st.lists(st.sampled_from(NAMES + tuple(range(8))), max_size=4))
    @step
    def warm(self, refs, dies=()):
        owners = {}  # shard -> the names it owns, in call order
        for name in (resolve_keyword(self.topic_names, ref) for ref in refs):
            owners.setdefault(shard_of_keyword(name, self.n), []).append(name)
        dying = self.kill_unnoticed(dies, owners)
        _got, error = _outcome(lambda: self.pool.warm(refs))
        calls = [(s, lambda server, own=owners[s]: server.warm(own)) for s in owners]
        calls.sort(key=lambda call: call[0])
        self.check(None, error, lambda: self.fanout(calls, dying))

    @rule()
    @step
    def evict_all(self, dies=()):
        dying = self.kill_unnoticed(dies, range(self.n))
        _got, error = _outcome(self.pool.evict_all)
        calls = [(s, lambda server: server.evict_all()) for s in range(self.n)]
        self.check(None, error, lambda: self.fanout(calls, dying))

    @rule(
        op=st.sampled_from(["drain", "restore", "restart_worker"]),
        shards=st.lists(SHARDS, min_size=1, max_size=2),
    )
    @step
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
                self.drained[s] = self.degraded[s] = False
                self.window[s], self.errors[s] = 0, None

    @rule(kind=st.sampled_from(["kill", "delay", "drop"]), shard=SHARDS)
    @step
    def fault(self, kind, shard):
        """One fault on one shard, fired on its own (see :meth:`suffer`)."""
        s, seconds = shard % self.n, float(kind == "delay")
        self.suffer(FaultEvent(kind, 0, s, seconds), self.fire(kind, s, seconds))

    @step
    def age(self, shard):
        """The shard's worker has served a whole ``_BUDGET_RESET_AFTER``:
        the failure that ends it starts a new restart window."""
        s = shard % self.n
        self.pool._shards[s].started_at -= process_pool._BUDGET_RESET_AFTER + 60.0
        self.shards[s].aged = True

    @step
    def corrupt(self, keyword):
        """Flip one byte mid-segment of ``keyword``'s CRC-checked record
        (RR ``inv/<kw>``, IRR ``ip/<kw>``) in the served file, under the
        live pool.  The model servers map the same file, so they predict
        the outcome: a read of it fails typed, a cached block answers."""
        with SegmentReader(self.path) as segments:
            info = segments.info(f"{'inv' if self.kind == 'rr' else 'ip'}/{keyword}")
        with open(self.path, "r+b") as fh:
            fh.seek(info.offset + info.length // 2)
            byte = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([byte ^ 0xFF]))

    # -- invariants, after every step --
    @invariant()
    def health_is_the_model(self):
        if self.pool is None:
            return
        before = len(self.taken)
        health = self.pool.health()
        assert len(self.taken) == before  # parent-side: no worker round trip
        for s, shard in enumerate(health.shards):
            assert shard.state == self.state(s)
            assert shard.alive == self.shards[s].alive
            assert (shard.rss_bytes > 0) == shard.alive
            assert (shard.restarts, shard.inflight) == (self.restarts[s], 0)
            if self.errors[s] is None:
                assert shard.last_error is None
            else:
                assert self.errors[s] in (shard.last_error or ""), shard.last_error
            assert self.pool._shards[s].restarts_in_window == self.window[s]
        counters = (health.restarts, health.retries, health.sheds, health.inflight)
        assert counters == (sum(self.restarts), self.retries, self.sheds, 0)
        ready = sum(self.state(s) == SHARD_READY for s in range(self.n))
        assert (health.available_shards, health.healthy) == (ready, ready == self.n)
        assert health.max_inflight == self.max_inflight

    @invariant()
    def nothing_outside_processes_and_pipes(self):
        """An open pool names no ``kbtim-*`` segment and maps none: every
        reply rides its worker's pipe."""
        if self.pool is None:
            return
        assert kbtim_shm_entries() == self.segments
        assert kbtim_mappings() == self.mappings

    @invariant()
    def snapshot_is_the_model(self):
        if self.pool is None:
            return
        before = len(self.taken)
        snapshot = self.pool.snapshot()
        ready = [s for s in range(self.n) if self.state(s) == SHARD_READY]
        assert len(self.taken) - before == len(ready)  # one round trip each
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
    # arguments a caller sets (start_method: see test_process_pool.py).
    assert {c[0] for c in CONFIGS} == {"rr", "irr"}
    assert {c[1] for c in CONFIGS} == {1, 2, 3}
    assert {c[2] for c in CONFIGS} == {None, 2}


def run_trace(paths, init, steps) -> None:
    """Replay one trace: ``open_pool(**init)``, then each step, with every
    invariant after the open and after every step; always torn down."""
    model = ServingModel(paths)
    try:
        calls = [functools.partial(model.open_pool, **init)]
        for name, args in steps:
            calls.append(functools.partial(getattr(model, name), **_decoded(args)))
        for call in calls:
            call()
            model.health_is_the_model()
            model.nothing_outside_processes_and_pipes()
            model.snapshot_is_the_model()
    finally:
        model.teardown()


def _traces():
    """One test id per trace file and index kind (a list of kinds is the
    old ``[rr|irr]`` parametrisation)."""
    for path in sorted(TRACES.glob("*.json")):
        kinds = json.loads(path.read_text())["init"]["kind"]
        if isinstance(kinds, str):
            yield pytest.param(path, kinds, id=path.stem)
            continue
        for kind in kinds:
            yield pytest.param(path, kind, id=f"{path.stem}[{kind}]")


@pytest.mark.parametrize("path, kind", _traces())
def test_trace(path, kind, served_paths, tmp_path):
    """Each committed scenario, served from its own copy of the index."""
    document = json.loads(path.read_text())
    copy = shutil.copy(served_paths[kind], tmp_path)
    run_trace({kind: copy}, dict(document["init"], kind=kind), document["steps"])


def test_each_trace_names_the_one_test_it_replaces():
    for path in TRACES.glob("*.json"):
        replaces = json.loads(path.read_text())["replaces"]
        if replaces is None:  # a scenario of its own
            continue
        module, *names = replaces.split("::")
        assert path.stem == ".".join([pathlib.Path(module).stem, *names])
        source = (pathlib.Path(__file__).parent / module).read_text()
        assert f"def {names[-1]}(" not in source


def test_a_failing_trace_leaves_nothing_behind(served_paths):
    """A step that raises still closes the pool: teardown takes no
    hypothesis note outside a hypothesis test, so it reaps every worker."""
    children = set(multiprocessing.active_children())
    segments, descriptors = kbtim_shm_entries(), pool_descriptors()
    init = dict(
        kind="rr",
        n_workers=2,
        max_inflight=None,
        cache_keywords=64,
        request_timeout=None,
        budget=3,
        backoff=0.0,
        retries=1,
    )
    steps = [["query", {"query": {"keywords": ["music"], "k": 3}}]]
    with pytest.raises(ValueError, match="unknown fault kind"):
        meteor = ["fault", {"kind": "meteor", "shard": 0}]
        run_trace(served_paths, init, steps + [meteor])
    assert set(multiprocessing.active_children()) == children
    assert kbtim_shm_entries() == segments
    assert pool_descriptors() == descriptors
