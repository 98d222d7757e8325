"""The serving pool (repro.core.process_pool; PR 5, one class since PR 18).

``tests/test_serving_model.py`` checks the serving contract — answers,
attributed I/O, supervision, telemetry and cleanup under any sequence of
operations and faults — and replays the pool's scenarios (correctness,
stats, worker death, fan-out death, poisoning, lifecycle) as traces.
Pinned here:

* ``TestPoolContract``: on a healthy run over either index, answers and
  per-query I/O equal one in-process ``KBTIMServer`` per shard, the
  marginals and θ equal a sequential RR reader (the seeds too, on RR),
  and the merged telemetry is one JSON document summing its parts.
* The request/response path is picklable: queries, ``QueryStats`` /
  ``IOStats`` / ``ServerStats`` snapshots cross a process boundary and
  come back detached and value-identical.
* Races and boundaries no sequential model reaches: ``health()`` while a
  shard is busy, a concurrent request during a blocking shutdown, a
  payload that fails to unpickle in the worker.
* A rejected constructor leaves nothing behind: no process, no shared
  segment, no lock file; a corrupt file fails typed in the parent.
* ``spawn`` workers (the only start method on macOS and Windows) answer
  single queries and batches on every shard bit-identically, and a
  restart under ``spawn`` answers as its predecessor did.
* A batch answer of any size is one pickled reply, ``QueryStats``
  included.
"""

import json
import os
import pickle
import tempfile
import threading
import time
from dataclasses import replace

import pytest
from leaks import kbtim_shm_entries

from repro.core import process_pool
from repro.core.catalog import open_index
from repro.core.process_pool import (
    SupervisedServerPool,
    _WorkerHandle,
    shard_of_keyword,
)
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex
from repro.core.server import (
    SHARD_READY,
    SNAPSHOT_SCHEMA,
    KBTIMServer,
    ServerStats,
    _SERVING_COUNTERS,
)
from repro.datasets.workload import make_mixed_workload
from repro.errors import CorruptIndexError, QueryError, ServerError
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool


@pytest.fixture(scope="module")
def setup(served_paths):
    return served_paths["rr"], served_paths["profiles"]


@pytest.fixture(scope="module")
def paths(served_paths):
    """``{kind: path}``: the served RR file and its IRR twin."""
    return {kind: served_paths[kind] for kind in ("rr", "irr")}


@pytest.fixture(scope="module")
def workload(served_paths):
    return make_mixed_workload(
        served_paths["profiles"], n_queries=20, lengths=(1, 2, 3), ks=(3, 8), rng=54
    )


@pytest.fixture(scope="module")
def expected(served_paths, workload):
    with RRIndex(served_paths["rr"]) as index:
        return [index.query(q) for q in workload]


def _assert_same_selection(a, b):
    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.phi_q == pytest.approx(b.phi_q)


WARMED = ("music", "book")


def _observe(path: str, workload) -> dict:
    """Drive the pool through peek, warm, query and query_batch and record
    everything the per-shard oracle must reproduce."""
    half = len(workload) // 2
    with SupervisedServerPool(path, n_workers=3) as pool:
        shards = [pool.shard_of(q) for q in workload]
        pool.warm(WARMED)
        warmed = pool.snapshot()
        base = warmed.io  # catalog/header reads at open + the warm loads
        answers = [pool.query(q) for q in workload[:half]]
        answers += pool.query_batch(workload[half:])
        snapshot = pool.snapshot()
    return {
        "shards": shards,
        "warm_loads": [part.stats.warm_loads for part in warmed.workers],
        "answers": answers,
        "reads": snapshot.io.read_calls - base.read_calls,
        "bytes": snapshot.io.bytes_read - base.bytes_read,
        "snapshot": snapshot,
    }


def _oracle(path: str, shards, workload):
    """What the pool must equal, from nothing of the pool but its routing:
    one in-process ``KBTIMServer`` over its own reader per shard, fed the
    calls ``_observe`` made in the order it made them — the first half
    one query at a time, the second half as one ``query_batch`` per shard
    — each on the server ``pool.shard_of`` named."""
    half = len(workload) // 2
    servers = [KBTIMServer(open_index(path)) for _ in range(3)]
    for kw in WARMED:
        servers[shard_of_keyword(kw, 3)].warm([kw])
    warm_loads = [server.stats.warm_loads for server in servers]
    answers = [servers[shard].query(q) for shard, q in zip(shards, workload[:half])]
    batched = {}
    for shard, server in enumerate(servers):
        positions = [pos for pos in range(half, len(workload)) if shards[pos] == shard]
        sub = server.query_batch([workload[pos] for pos in positions])
        batched.update(zip(positions, sub))
    answers += [batched[pos] for pos in range(half, len(workload))]
    for server in servers:
        server.index.close()
    return warm_loads, answers


def _spy_on_requests(monkeypatch) -> list:
    """Record the verb of every request sent to a worker."""
    verbs = []
    original = _WorkerHandle.request

    def spy(self, method, payload=None, *, timeout=None):
        verbs.append(method)
        return original(self, method, payload, timeout=timeout)

    monkeypatch.setattr(_WorkerHandle, "request", spy)
    return verbs


@pytest.mark.parametrize("kind", ["rr", "irr"], scope="class")
class TestPoolContract:
    """What the one pool class promises on a healthy run over either
    index, checked against a sequential RR reader and the per-shard
    ``KBTIMServer`` oracle over the same file."""

    @pytest.fixture(scope="class")
    def observed(self, kind, paths, workload):
        return _observe(paths[kind], workload)

    def test_same_routing_answers_and_exact_io(
        self, kind, paths, workload, observed, expected
    ):
        # crc32 on the primary (smallest) keyword: the workload refs are names.
        assert observed["shards"] == [
            shard_of_keyword(min(q.keywords), 3) for q in workload
        ]
        warm_loads, reference = _oracle(paths[kind], observed["shards"], workload)
        assert observed["warm_loads"] == warm_loads
        assert sum(warm_loads) == 2
        for got, ref, want in zip(observed["answers"], reference, expected):
            _assert_same_selection(got, ref)
            # Theorem 3: IRR's seed scores and θ are RR's (seeds may
            # differ on ties).
            assert (got.marginal_coverages, got.theta) == (
                want.marginal_coverages,
                want.theta,
            )
            if kind == "rr":
                assert got.seeds == want.seeds
            assert got.stats.io.read_calls == ref.stats.io.read_calls
            assert got.stats.io.bytes_read == ref.stats.io.bytes_read
        # Exact accounting: the per-query ``QueryStats.io`` deltas partition
        # the pool's physical I/O (and, equal one by one, the oracle's).
        answers = observed["answers"]
        assert sum(a.stats.io.read_calls for a in answers) == observed["reads"] > 0
        assert sum(a.stats.io.bytes_read for a in answers) == observed["bytes"]

    def test_snapshot_is_one_json_document(self, observed, workload):
        """``snapshot().to_dict()`` is plain JSON of schema ``SNAPSHOT_SCHEMA``."""
        document = json.loads(json.dumps(observed["snapshot"].to_dict()))
        assert document["schema"] == SNAPSHOT_SCHEMA
        keys = ["health", "io", "schema", "stats", "workers"]
        assert sorted(document) == keys
        io_keys = ["bytes_read", "pages_hit", "pages_read", "read_calls"]
        assert sorted(document["io"]) == io_keys  # reads only (schema 4)
        assert len(document["workers"]) == len(document["health"]["shards"]) == 3
        assert document["stats"]["queries"] == len(workload)

    def test_merged_views_are_the_sum_of_the_shard_parts(self, observed, workload):
        snapshot = observed["snapshot"]
        for name in _SERVING_COUNTERS:
            assert getattr(snapshot.stats, name) == pytest.approx(
                sum(getattr(part.stats, name) for part in snapshot.workers)
            )
        for name in ("read_calls", "pages_read", "pages_hit", "bytes_read"):
            assert getattr(snapshot.io, name) == sum(
                getattr(part.io, name) for part in snapshot.workers
            )
        assert snapshot.stats.queries == len(workload)
        assert len(snapshot.stats.latencies) == len(workload)
        assert (snapshot.stats.restarts, snapshot.stats.sheds) == (0, 0)
        assert set(WARMED) <= {
            kw for part in snapshot.workers for kw in part.cached_keywords
        }

    def test_memory_has_one_home_and_it_is_never_zero(self, observed):
        """Every live shard has a positive parent-measured RSS, the pool
        total is their sum, and ``ServerStats`` has no memory fields to
        disagree with it (033b4ec: stats said 0 RSS, memory_info() 45 MB)."""
        health = observed["snapshot"].health
        assert health.healthy and health.available_shards == 3
        assert all(s.alive and s.rss_bytes > 0 for s in health.shards)
        assert all(s.restarts == 0 and s.inflight == 0 for s in health.shards)
        pids = {s.pid for s in health.shards}
        assert len(pids) == 3 and os.getpid() not in pids
        assert health.rss_bytes == sum(s.rss_bytes for s in health.shards)
        assert not hasattr(observed["snapshot"].stats, "rss_bytes")
        assert not hasattr(ServerStats(), "record_memory")

    def test_health_asks_no_worker_and_snapshot_asks_each_once(
        self, kind, paths, monkeypatch
    ):
        with SupervisedServerPool(paths[kind], n_workers=3) as pool:
            pool.query(KBTIMQuery(("music",), 2))
            verbs = _spy_on_requests(monkeypatch)
            health = pool.health()
            assert verbs == []
            assert [s.state for s in health.shards] == ["ready"] * 3
            pool.snapshot()
            assert verbs == ["snapshot"] * 3
            del verbs[:]
            assert pool.stats.queries == 1  # the one convenience view
            assert verbs == ["snapshot"] * 3

    @pytest.mark.chaos
    def test_health_does_not_wait_for_a_busy_shard(self, kind, paths, monkeypatch):
        """``health()`` returns while a shard's pipe is held by a slow
        request — it never queues behind the handle lock."""
        with SupervisedServerPool(paths[kind], n_workers=2) as pool:
            handle = pool._workers[0]
            busy = threading.Thread(
                target=handle.request, args=("_chaos", ("sleep", 0.8))
            )
            busy.start()
            try:
                give_up = time.monotonic() + 10.0
                while not handle.lock.locked() and time.monotonic() < give_up:
                    time.sleep(0.005)
                verbs = _spy_on_requests(monkeypatch)
                health = pool.health()
                still_busy = handle.lock.locked()
            finally:
                busy.join(timeout=10.0)
            assert not busy.is_alive()
            assert still_busy  # health() came back before the shard did
            assert verbs == []
            assert health.healthy and all(s.rss_bytes > 0 for s in health.shards)

    @pytest.mark.chaos
    def test_killed_worker_is_a_hole_not_an_exception(self, kind, paths):
        """After ``kill -9`` of one worker ``health()`` is complete and
        ``snapshot()`` has a ``None`` hole for that shard; neither read
        heals it."""
        with SupervisedServerPool(paths[kind], n_workers=2) as pool:
            for kw in ("music", "book", "journal", "car"):
                pool.query(KBTIMQuery((kw,), 2))
            before = pool.snapshot()
            victim = 0
            pool._workers[victim].process.kill()
            pool._workers[victim].process.join(timeout=10.0)
            health = pool.health()
            snapshot = pool.snapshot()
            dead, live = health.shards
            assert (dead.alive, dead.rss_bytes, dead.state) == (False, 0, "restarting")
            assert (live.alive, live.state) == (True, "ready") and live.rss_bytes > 0
            assert not health.healthy and health.available_shards == 1
            assert health.rss_bytes == live.rss_bytes
            assert snapshot.workers[victim] is None
            assert snapshot.workers[1].stats.queries == before.workers[1].stats.queries
            # The merged views cover the shard that answered.
            assert snapshot.stats.queries == before.workers[1].stats.queries
            assert snapshot.io.read_calls == before.workers[1].io.read_calls
            assert snapshot.to_dict()["workers"][victim] is None
            assert snapshot.stats.restarts == 0  # a read never heals


class TestPicklableBoundary:
    """The types that ride the worker pipe survive pickling."""

    def test_iostats_roundtrip_detached(self):
        io = IOStats()
        io.record_read(pages_read=3, pages_hit=1, nbytes=256)
        copy = pickle.loads(pickle.dumps(io))
        assert copy == io
        assert copy.to_dict() == {
            "read_calls": 1,
            "pages_read": 3,
            "pages_hit": 1,
            "bytes_read": 256,
        }
        copy.record_read(pages_read=1, pages_hit=0, nbytes=8)
        assert copy.read_calls == 2
        assert io.read_calls == 1  # the copy is detached

    def test_server_stats_snapshot_roundtrip(self):
        stats = ServerStats(latency_window=4)
        for i in range(6):
            stats.record_query(float(i))
        stats.record_keyword_hit()
        stats.record_keyword_miss()
        stats.record_warm_load()
        copy = pickle.loads(pickle.dumps(stats.snapshot()))
        counters = (copy.keyword_hits, copy.keyword_misses, copy.warm_loads)
        assert (copy.queries, counters) == (6, (1, 1, 1))
        assert sorted(copy.latencies) == [2.0, 3.0, 4.0, 5.0]
        copy.record_query(9.0)
        assert stats.queries == 6  # detached

    def test_server_stats_zero_window_snapshot(self):
        stats = ServerStats(latency_window=0)
        stats.record_query(1.0)
        copy = pickle.loads(pickle.dumps(stats.snapshot()))
        assert copy.queries == 1
        assert copy.latencies == ()
        # The copy's ring is disabled too, not unbounded (033b4ec built
        # it with ``maxlen=None``): it keeps retaining nothing.
        copy.record_query(2.0)
        assert copy.queries == 2
        assert copy.latencies == ()

    def test_query_pickles_through_constructor(self):
        query = KBTIMQuery(("music", 3), 5)
        cls, args = query.__reduce__()
        assert cls is KBTIMQuery  # unpickling re-validates
        copy = pickle.loads(pickle.dumps(query))
        assert copy.keywords == ("music", 3)
        assert copy.k == 5

    def test_seed_selection_roundtrip(self, setup):
        path, _profiles = setup
        with RRIndex(path) as index:
            answer = index.query(KBTIMQuery(("music", "book"), 4))
        copy = pickle.loads(pickle.dumps(answer))
        _assert_same_selection(copy, answer)
        assert copy.stats.io.read_calls == answer.stats.io.read_calls
        assert copy.stats.io.bytes_read == answer.stats.io.bytes_read


def _raise_on_unpickle():
    raise QueryError("poison payload rejected on arrival")


class _PoisonQuery:
    """Pickles fine, but explodes during *unpickling* in the worker —
    the shape of a tampered or version-skewed payload that fails
    KBTIMQuery's constructor re-validation."""

    def __reduce__(self):
        return (_raise_on_unpickle, ())


class TestRequestLevelFailures:
    def test_unpicklable_payload_does_not_kill_worker(self, setup):
        """A payload that fails re-validation on arrival is a request
        error shipped back to the caller; the shard keeps serving."""
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=1) as pool:
            with pytest.raises(QueryError, match="poison"):
                pool._workers[0].request("query", _PoisonQuery())
            assert pool.health().shards[0].alive
            answer = pool.query(KBTIMQuery(("music",), 3))
            assert answer.seeds


@pytest.mark.chaos
class TestShutdownLocking:
    def test_concurrent_request_not_stalled_by_blocking_shutdown(self, setup):
        """The lock fix: shutdown holds the handle lock only across
        the closed flip + pipe send, so a concurrent request observes
        ``closed`` promptly instead of stalling behind the join."""
        path, _profiles = setup
        pool = SupervisedServerPool(path, n_workers=1)
        handle = pool._workers[0]
        # Make the drain slow: the worker is busy for 0.8s, so shutdown's
        # reply-wait + join dominate while the lock must stay free.
        handle.conn.send(("_chaos", ("sleep", 0.8)))
        elapsed: dict = {}

        def concurrent_request():
            started = time.perf_counter()
            try:
                handle.request("snapshot")
            except ServerError:
                pass
            elapsed["seconds"] = time.perf_counter() - started

        shutdown = threading.Thread(target=lambda: handle.shutdown(5.0))
        shutdown.start()
        time.sleep(0.1)  # let shutdown flip `closed` and reach the wait
        prober = threading.Thread(target=concurrent_request)
        prober.start()
        prober.join(timeout=5.0)
        assert not prober.is_alive()
        # The probe failed fast on `closed` (well before the 0.8s drain).
        assert elapsed["seconds"] < 0.5
        shutdown.join(timeout=10.0)
        assert not shutdown.is_alive()
        pool.close()


class TestLifecycle:
    def test_rejected_argument_leaves_no_shared_state(self, setup):
        """Every argument is validated before the first pipe or process
        exists (d439185: a bad ``start_method`` once raised *after*
        creating shared segments and a lock file)."""

        def kbtim_entries():
            tmp = os.listdir(tempfile.gettempdir())
            return kbtim_shm_entries(), {e for e in tmp if e.startswith("kbtim-")}

        path, _profiles = setup
        before = kbtim_entries()
        with pytest.raises(ValueError, match="bogus"):
            SupervisedServerPool(path, start_method="bogus")
        for bad in ({"n_workers": 0}, {"cache_keywords": 0}, {"max_inflight": 0}):
            with pytest.raises(ValueError):
                SupervisedServerPool(path, **bad)
        # Supervision is module constants, not options.
        for gone in ("max_retries", "restart_budget", "restart_backoff", "pool_pages"):
            with pytest.raises(TypeError):
                SupervisedServerPool(path, **{gone: 1})
        assert kbtim_entries() == before

    def test_corrupt_path_fails_in_parent(self, tmp_path):
        bogus = tmp_path / "not-an-index.rr"
        bogus.write_bytes(b"this is not an index file at all, sorry")
        with pytest.raises(CorruptIndexError):
            SupervisedServerPool(str(bogus), n_workers=2)

    def test_spawn_start_method(self, setup, workload, expected):
        """The picklable protocol works under spawn (fresh interpreters):
        both shards answer single queries and a batch bit-identically."""
        path, _profiles = setup
        half = len(workload) // 2
        with SupervisedServerPool(path, n_workers=2, start_method="spawn") as pool:
            assert pool.start_method == "spawn"
            assert {pool.shard_of(q) for q in workload} == {0, 1}
            answers = [pool.query(q) for q in workload[:half]]
            answers += pool.query_batch(workload[half:])
            assert pool.health().rss_bytes > 0
        for got, want in zip(answers, expected, strict=True):
            _assert_same_selection(got, want)

    @pytest.mark.parametrize("kind", ["rr", "irr"])
    def test_spawn_worker_heals_after_a_kill(self, paths, kind):
        """A restart under spawn starts the replacement in a fresh
        interpreter too, and it answers as its predecessor did."""
        query = KBTIMQuery(("music", "book"), 3)
        with SupervisedServerPool(paths[kind], n_workers=1, start_method="spawn") as pool:
            want = pool.query(query)
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10.0)
            got = pool.query(query)
            assert (pool.health().restarts, pool.stats.retries) == (1, 0)
        _assert_same_selection(got, want)


def test_a_large_batch_rides_the_pipe(setup):
    """A batch answer of any size is one pickled reply: 400 answers equal
    an in-process server's, ``QueryStats`` included (but wall time), and
    the shard stays ready."""
    path, _profiles = setup
    queries = [KBTIMQuery((kw,), 8) for kw in ("music", "book")] * 200
    server = KBTIMServer(open_index(path, pool=BufferPool(process_pool._POOL_PAGES)))
    try:
        want = server.query_batch(queries)
    finally:
        server.index.close()
    with SupervisedServerPool(path, n_workers=1) as pool:
        got = pool.query_batch(queries)
        assert pool.health().shards[0].state == SHARD_READY

    def untimed(answers):
        return [replace(a, stats=replace(a.stats, elapsed_seconds=0.0)) for a in answers]

    assert untimed(got) == untimed(want)


class TestReplayIntegration:
    def test_harness_opens_process_pool(self, tmp_path):
        from repro.experiments.harness import ExperimentContext, ExperimentScale

        with ExperimentContext(ExperimentScale.smoke(), workdir=str(tmp_path)) as ctx:
            ds = ctx.default_dataset("twitter")
            with ctx.open_server_pool(ds, n_workers=2) as pool:
                assert isinstance(pool, SupervisedServerPool)
                assert len(set(pool.pids)) == 2 and os.getpid() not in pool.pids
                assert pool.stats.queries == 0
