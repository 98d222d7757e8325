"""The serving pool (repro.core.process_pool; PR 5, one class since PR 18).

Guarantees pinned here:

* The request/response path is picklable: queries, ``QueryStats`` /
  ``IOStats`` / ``ServerStats`` snapshots all cross a process boundary
  and come back mutation-safe (fresh locks) and value-identical.
* ``SupervisedServerPool`` serves an RR or an IRR file.  Its answers are
  bit-identical — with *exact* per-query I/O accounting (per-query
  deltas sum to the pool's physical total) — to one in-process
  ``KBTIMServer`` per shard over the same file, and their marginals and
  θ equal a sequential ``RRIndex.query`` run (the seeds too, on RR).
* One telemetry contract: ``health()`` is parent-side (zero worker round
  trips), ``snapshot()`` is one round trip per ready shard, and a dead
  shard is a ``None`` hole, never an exception.
* Merged stats aggregate correctly across worker processes, and
  warm/evict fan-out lands on the owning shard.
* A worker that dies mid-request surfaces a clear
  :class:`~repro.errors.ServerError` (naming the worker and exit code)
  instead of a hang, other shards keep serving, and the next request
  heals the shard.
* A rejected constructor and ``close()`` leave nothing behind: no
  process, no shared segment, no file descriptor.
"""

import json
import multiprocessing
import os
import pickle
import tempfile
import threading
import time

import pytest

from repro.core.catalog import open_index
from repro.core.irr_index import IRRIndexBuilder
from repro.core.process_pool import (
    SupervisedServerPool,
    _WorkerHandle,
    shard_of_keyword,
)
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.server import (
    SNAPSHOT_SCHEMA,
    KBTIMServer,
    ServerStats,
    _SERVING_COUNTERS,
)
from repro.core.theta import ThetaPolicy
from repro.datasets.workload import make_mixed_workload, replay
from repro.errors import (
    CorruptIndexError,
    DeadlineExceededError,
    IndexError_,
    QueryError,
    ServerError,
)
from repro.storage.iostats import IOStats


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(300, avg_degree=8, rng=51)
    profiles = zipf_profiles(graph.n, TopicSpace.default(8), rng=52)
    model = IndependentCascade(graph)
    path = str(tmp_path_factory.mktemp("procpool") / "p.rr")
    policy = ThetaPolicy(epsilon=1.0, K=30, cap=200)
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=53)
    tables = builder.sample()
    builder.build(path, tables=tables)
    # The IRR file of the same sample tables, beside it (``paths``).
    IRRIndexBuilder(model, profiles, policy=policy, delta=25, rng=53).build(
        path[: -len(".rr")] + ".irr", tables=tables
    )
    return path, profiles


@pytest.fixture(scope="module")
def paths(setup):
    """``{kind: path}``: the RR file of ``setup`` and its IRR twin."""
    path, _profiles = setup
    return {"rr": path, "irr": path[: -len(".rr")] + ".irr"}


@pytest.fixture(scope="module")
def workload(setup):
    _path, profiles = setup
    return make_mixed_workload(
        profiles, n_queries=20, lengths=(1, 2, 3), ks=(3, 8), rng=54
    )


@pytest.fixture(scope="module")
def expected(setup, workload):
    path, _profiles = setup
    with RRIndex(path) as index:
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
            _kill_shard(pool, victim)
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

    def test_iostats_roundtrip_with_fresh_lock(self):
        io = IOStats()
        io.record_read(pages_read=3, pages_hit=1, nbytes=256)
        io.record_write(64)
        copy = pickle.loads(pickle.dumps(io))
        assert copy.read_calls == 1
        assert copy.pages_read == 3
        assert copy.pages_hit == 1
        assert copy.bytes_read == 256
        assert copy.bytes_written == 64
        copy.record_read(pages_read=1, pages_hit=0, nbytes=8)  # lock works
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
        assert copy.queries == 6
        assert copy.keyword_hits == 1
        assert copy.keyword_misses == 1
        assert copy.warm_loads == 1
        assert sorted(copy.latencies) == [2.0, 3.0, 4.0, 5.0]
        copy.record_query(9.0)  # fresh RLock works
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


class TestCorrectness:
    def test_matches_direct_index_query(self, setup, workload, expected):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=3) as pool:
            for query, want in zip(workload, expected):
                _assert_same_selection(pool.query(query), want)

    def test_batch_matches_sequential(self, setup, workload, expected):
        path, _profiles = setup
        for concurrent in (False, True):
            with SupervisedServerPool(path, n_workers=3) as pool:
                got = pool.query_batch(workload, concurrent=concurrent)
            assert len(got) == len(expected)
            for a, b in zip(expected, got):
                _assert_same_selection(a, b)

    def test_id_refs_dispatch_like_names(self, setup):
        path, _profiles = setup
        with RRIndex(path) as index:
            pairs = [
                (meta.topic_id, name) for name, meta in index.catalog.items()
            ]
        with SupervisedServerPool(path, n_workers=4) as pool:
            for topic_id, name in pairs:
                assert pool.shard_of(KBTIMQuery((topic_id,), 1)) == pool.shard_of(
                    KBTIMQuery((name,), 1)
                )
            with pytest.raises(IndexError_):
                pool.shard_of(KBTIMQuery((10_000,), 1))

    def test_error_types_cross_the_boundary(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2) as pool:
            with pytest.raises(QueryError):
                pool.query(KBTIMQuery(("music",), 999))  # over budget
            with pytest.raises(IndexError_):
                pool.query(KBTIMQuery(("nosuchtopic",), 2))  # unknown
            with pytest.raises(QueryError):
                # mixed-form duplicate: id 3 next to the name it resolves to
                with RRIndex(path) as index:
                    name = index.topic_names[3]
                pool.query(KBTIMQuery((3, name), 2))
            # the worker survives its own exceptions and keeps serving
            answer = pool.query(KBTIMQuery(("music",), 3))
            assert answer.seeds

    def test_empty_batch(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2) as pool:
            assert pool.query_batch([]) == []
            assert pool.stats.queries == 0


class TestStatsAccounting:
    def test_merged_stats_sum_across_workers(self, setup, workload):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=3) as pool:
            pool.query_batch(workload)
            snapshot = pool.snapshot()
            merged = snapshot.stats
            per_worker = [part.stats for part in snapshot.workers]
            assert merged.queries == len(workload)
            assert merged.queries == sum(w.queries for w in per_worker)
            assert merged.keyword_hits == sum(w.keyword_hits for w in per_worker)
            assert merged.keyword_misses == sum(
                w.keyword_misses for w in per_worker
            )
            touches = sum(q.n_keywords for q in workload)
            assert merged.keyword_hits + merged.keyword_misses == touches
            assert len(merged.latencies) == len(workload)
            assert merged.mean_latency > 0
            assert merged.percentile_latency(95) >= merged.percentile_latency(5)

    def test_cold_misses_read_twice_per_keyword(self, setup):
        """The seed cost model survives the process hop: a cold keyword
        load is exactly 2 logical reads (RR prefix + inverted lists)."""
        path, _profiles = setup
        query = KBTIMQuery(("music", "book"), 3)
        with SupervisedServerPool(path, n_workers=1) as pool:
            base = pool.snapshot().io
            answer = pool.query(query)
            delta = pool.snapshot().io.read_calls - base.read_calls
        assert delta == 2 * query.n_keywords
        assert answer.stats.io.read_calls == delta

    def test_warm_lands_on_owning_shard(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=4) as pool:
            pool.warm(["music", "book"])
            workers = pool.snapshot().workers
            assert sum(w.stats.warm_loads for w in workers) == 2
            assert sum(w.stats.keyword_misses for w in workers) == 0
            for kw in ("music", "book"):
                shard = pool.shard_of(KBTIMQuery((kw,), 1))
                assert kw in workers[shard].cached_keywords

    def test_evict_all_drops_every_worker_cache(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2) as pool:
            pool.query(KBTIMQuery(("music",), 2))
            pool.evict_all()
            emptied = pool.snapshot()
            assert all(not part.cached_keywords for part in emptied.workers)
            pool.query(KBTIMQuery(("music",), 2))
            # really re-reads
            assert pool.snapshot().io.read_calls > emptied.io.read_calls


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


class TestWorkerDeath:
    def test_dead_worker_raises_clear_error_not_hang(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=3, max_retries=0) as pool:
            victim = pool.shard_of(query)
            pid = pool.pids[victim]
            _kill_shard(pool, victim, unnoticed=True)
            with pytest.raises(ServerError) as excinfo:
                pool.query(query)
            message = str(excinfo.value)
            assert f"worker {victim} (pid {pid}) died" in message
            assert "exit code -9" in message
            shard_health = pool.health().shards[victim]
            assert (shard_health.alive, shard_health.state) == (False, "restarting")
            assert "died" in shard_health.last_error
            # Other shards keep serving.
            owners = _two_keywords_on_distinct_shards(pool)
            survivor = next(kw for kw, shard in owners if shard != victim)
            assert pool.query(KBTIMQuery((survivor,), 2)).seeds
            # And the next request to the dead shard heals it.
            assert pool.query(query).seeds
            assert pool.health().shards[victim].restarts == 1

    def test_dead_worker_fails_batch(self, setup, workload):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2, max_retries=0) as pool:
            _kill_shard(pool, 0, unnoticed=True)
            with pytest.raises(ServerError, match="worker 0"):
                pool.query_batch(workload)

    def test_close_after_death_is_clean(self, setup):
        path, _profiles = setup
        pool = SupervisedServerPool(path, n_workers=2)
        for handle in pool._workers:
            handle.process.kill()
        pool.close()  # must not raise or hang
        with pytest.raises(ServerError):
            pool.query(KBTIMQuery(("music",), 2))


def _kill_shard(pool: SupervisedServerPool, shard: int, unnoticed=False) -> None:
    """SIGKILL and reap one worker; ``unnoticed`` hides the death from the
    next liveness probe, so it surfaces *mid-request*: with
    ``max_retries=0`` the caller sees the death diagnosis instead of a
    transparent heal-before-dispatch."""
    handle = pool._workers[shard]
    handle.process.kill()
    handle.process.join(timeout=10.0)
    if unnoticed:
        real_running, lie = handle._running, iter([True])
        handle._running = lambda: next(lie, False) or real_running()


def _two_keywords_on_distinct_shards(pool: SupervisedServerPool):
    """Two keyword names from the test topic space owned by different
    shards, each paired with its owning shard (per the pool's own
    dispatcher — no assumptions about the hash function)."""
    keywords = ("music", "book", "journal", "car", "travel", "food", "software")
    first = keywords[0]
    first_shard = pool.shard_of(KBTIMQuery((first,), 1))
    second, second_shard = next(
        (kw, shard)
        for kw in keywords[1:]
        if (shard := pool.shard_of(KBTIMQuery((kw,), 1))) != first_shard
    )
    return (first, first_shard), (second, second_shard)


@pytest.mark.chaos
class TestFanoutDeath:
    """Worker death during fan-out paths (surfacing mid-request, with no
    retry budget): surviving shards must still be administered/answered,
    and the error must name the dead shard."""

    def test_warm_applies_to_survivors_and_names_dead_shard(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=3, max_retries=0) as pool:
            (kw_dead, dead), (kw_live, live) = _two_keywords_on_distinct_shards(
                pool
            )
            _kill_shard(pool, dead, unnoticed=True)
            with pytest.raises(ServerError) as excinfo:
                pool.warm([kw_dead, kw_live])
            message = str(excinfo.value)
            assert f"worker {dead}" in message
            assert "died" in message
            # The surviving shard was warmed *before* the error surfaced.
            survivor = pool.snapshot().workers[live]
            assert survivor.stats.warm_loads == 1
            assert kw_live in survivor.cached_keywords

    def test_evict_all_applies_to_survivors_and_names_dead_shard(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=3, max_retries=0) as pool:
            (kw_dead, dead), (kw_live, live) = _two_keywords_on_distinct_shards(
                pool
            )
            pool.query(KBTIMQuery((kw_live,), 2))  # populate the live cache
            _kill_shard(pool, dead, unnoticed=True)
            with pytest.raises(ServerError) as excinfo:
                pool.evict_all()
            assert f"worker {dead}" in str(excinfo.value)
            # The surviving shard's caches really were dropped.
            assert pool.snapshot().workers[live].cached_keywords == ()

    def test_all_shards_dead_reports_every_failure(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2, max_retries=0) as pool:
            _kill_shard(pool, 0, unnoticed=True)
            _kill_shard(pool, 1, unnoticed=True)
            with pytest.raises(ServerError) as excinfo:
                pool.evict_all()
            message = str(excinfo.value)
            assert "2 shards failed during fan-out" in message
            assert "shard 0" in message
            assert "shard 1" in message

    def test_batch_error_names_dead_shard_and_survivors_answer(
        self, setup, workload
    ):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=3, max_retries=0) as pool:
            shards = {pool.shard_of(q) for q in workload}
            assert len(shards) > 1  # the batch really spans shards
            dead = min(shards)
            _kill_shard(pool, dead, unnoticed=True)
            with pytest.raises(ServerError) as excinfo:
                pool.query_batch(workload)
            message = str(excinfo.value)
            assert f"worker {dead}" in message
            assert "died" in message
            # Surviving shards still answer their sub-batches afterwards.
            survivors = [q for q in workload if pool.shard_of(q) != dead]
            answers = pool.query_batch(survivors)
            assert len(answers) == len(survivors)
            assert all(a.seeds for a in answers)


@pytest.mark.chaos
class TestPoisonedHandle:
    def test_timeout_poisons_handle_and_restart_resynchronizes(self, setup):
        """The PR-7 desync fix: after a poll() timeout the late reply is
        still in the pipe.  The handle must fail fast (poisoned), never
        deliver the stale reply to the next request, and the restart the
        next query triggers must resynchronize the shard."""
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with RRIndex(path) as index:
            want = index.query(query)
        with SupervisedServerPool(path, n_workers=2) as pool:
            shard = pool.shard_of(query)
            handle = pool._workers[shard]
            with pytest.raises(DeadlineExceededError) as excinfo:
                handle.request("_chaos", ("sleep", 0.5), timeout=0.05)
            assert "poisoned" in str(excinfo.value)
            assert handle.poisoned
            # Fails fast while the stale reply is still in flight...
            with pytest.raises(ServerError, match="poisoned"):
                handle.request("query", query)
            # ...even after the stale reply has landed in the pipe.
            time.sleep(0.6)
            with pytest.raises(ServerError, match="poisoned"):
                handle.request("query", query)
            assert pool.health().shards[shard].state == "restarting"
            # The pool swaps in a fresh pipe: exact answers again.
            got = pool.query(query)
            assert pool._workers[shard] is not handle
            assert got.seeds == want.seeds
            assert got.theta == want.theta

    def test_restart_worker_replaces_dead_shard(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=3) as pool:
            shard = pool.shard_of(query)
            old_pid = pool.pids[shard]
            _kill_shard(pool, shard)
            pool.restart_worker(shard)
            shard_health = pool.health().shards[shard]
            assert shard_health.alive and shard_health.state == "ready"
            assert shard_health.pid == pool.pids[shard] != old_pid
            assert shard_health.restarts == 1  # a manual restart is counted too
            assert pool.query(query).seeds

    def test_restart_worker_on_closed_pool_rejected(self, setup):
        path, _profiles = setup
        pool = SupervisedServerPool(path, n_workers=2)
        pool.close()
        with pytest.raises(ServerError):
            pool.restart_worker(0)


@pytest.mark.chaos
class TestShutdownLocking:
    def test_concurrent_request_not_stalled_by_blocking_shutdown(self, setup):
        """The PR-7 lock fix: shutdown holds the handle lock only across
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
    def test_context_manager_and_double_close(self, setup):
        path, _profiles = setup
        pool = SupervisedServerPool(path, n_workers=2)
        with pool:
            assert len(pool.pids) == 2
            assert all(isinstance(pid, int) for pid in pool.pids)
        pool.close()  # idempotent
        with pytest.raises(ServerError):
            pool.warm(["music"])

    def test_workers_reaped_on_close(self, setup):
        path, _profiles = setup
        pool = SupervisedServerPool(path, n_workers=2)
        handles, pids = list(pool._workers), set(pool.pids)
        pool.close()
        assert all(not handle.alive for handle in handles)
        live = {process.pid for process in multiprocessing.active_children()}
        assert not pids & live

    @pytest.mark.chaos
    def test_close_releases_every_descriptor(self, setup):
        """After ``close()`` no open fd of the pool remains — while the
        pool object is still referenced, and after a kill-heal and a
        drain/restore replaced both workers (d439185: +4, the reaped
        processes' sentinel pipes waited for garbage collection)."""
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        fds_before = len(os.listdir("/proc/self/fd"))
        pool = SupervisedServerPool(path, n_workers=2, restart_backoff=0.0)
        victim = pool.shard_of(query)
        assert pool.query(query).seeds
        _kill_shard(pool, victim)
        assert pool.query(query).seeds  # heals
        pool.drain(1 - victim)
        assert pool.health().shards[1 - victim].alive is False
        pool.restore(1 - victim)
        assert pool.health().healthy and pool.health().restarts == 2
        pool.close()
        assert len(os.listdir("/proc/self/fd")) == fds_before  # pool still referenced

    def test_rejected_argument_leaves_no_shared_state(self, setup):
        """Every argument is validated before the first shared-memory
        segment or process exists (d439185: a bad ``start_method`` once
        raised *after* creating shared segments and a lock file)."""
        path, _profiles = setup

        def kbtim_entries():
            roots = ("/dev/shm", tempfile.gettempdir())
            return {
                (root, entry)
                for root in filter(os.path.isdir, roots)
                for entry in os.listdir(root)
                if entry.startswith("kbtim-")
            }

        before = kbtim_entries()
        with pytest.raises(ValueError, match="bogus"):
            SupervisedServerPool(path, start_method="bogus")
        assert kbtim_entries() == before

    def test_bad_worker_count_rejected(self, setup):
        path, _profiles = setup
        with pytest.raises(ValueError):
            SupervisedServerPool(path, n_workers=0)

    def test_corrupt_path_fails_in_parent(self, tmp_path):
        bogus = tmp_path / "not-an-index.rr"
        bogus.write_bytes(b"this is not an index file at all, sorry")
        with pytest.raises(CorruptIndexError):
            SupervisedServerPool(str(bogus), n_workers=2)

    def test_spawn_start_method(self, setup):
        """The picklable protocol works under spawn (fresh interpreter)."""
        path, _profiles = setup
        with SupervisedServerPool(
            path, n_workers=1, start_method="spawn"
        ) as pool:
            assert pool.start_method == "spawn"
            answer = pool.query(KBTIMQuery(("music",), 3))
        with RRIndex(path) as index:
            _assert_same_selection(answer, index.query(KBTIMQuery(("music",), 3)))


class TestReplayIntegration:
    def test_replay_threads_over_process_pool(self, setup, workload, expected):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2) as pool:
            report = replay(pool, workload, threads=4)
        assert report.n_queries == len(workload)
        assert report.qps > 0
        for got, want in zip(report.results, expected):
            _assert_same_selection(got, want)

    def test_harness_opens_process_pool(self, tmp_path):
        from repro.experiments.harness import ExperimentContext, ExperimentScale

        with ExperimentContext(ExperimentScale.smoke(), workdir=str(tmp_path)) as ctx:
            ds = ctx.default_dataset("twitter")
            with ctx.open_server_pool(ds, n_workers=2) as pool:
                assert isinstance(pool, SupervisedServerPool)
                assert len(set(pool.pids)) == 2 and os.getpid() not in pool.pids
                assert pool.stats.queries == 0


class TestIOStatsReset:
    def test_reset_is_atomic_under_the_lock(self):
        """reset() takes the counter lock (the serving tier records from
        other threads; a lock-free reset could tear the counter set)."""
        io = IOStats()
        io.record_read(pages_read=2, pages_hit=1, nbytes=64)
        io.reset()
        assert (io.read_calls, io.pages_read, io.pages_hit, io.bytes_read) == (
            0,
            0,
            0,
            0,
        )
        io.record_read(pages_read=1, pages_hit=0, nbytes=8)  # lock re-usable
        assert io.read_calls == 1
