"""Routing contract: a query goes to the crc32 owner of its primary keyword.

Every worker serves the same immutable index, so routing decides cache
locality only, never an answer.  The suite pins the one rule:

* **The rule, byte-for-byte** — ``crc32(smallest resolved name) %
  n_shards`` over the name's UTF-8 bytes, with pinned tables so the
  mapping cannot drift.
* **Refs resolve first** — a topic-id keyword ref routes like its name,
  and neither keyword order nor pool load nor pool instance moves a
  query.
* **Routing never changes an answer** — under a 4-shard pool over
  either index format, answers equal a sequential reader of the same
  file, and each query's attributed I/O equals one reader per shard fed
  the queries routed to it.
* **Warm lands where traffic goes** — after ``warm()``, every warmed
  keyword is resident on its owner only, and on an RR index is served
  with zero reads.
* **Availability never moves a query** — a drained or degraded owner
  fails fast with a typed error naming it, while every other shard
  keeps serving exactly.
* **One rule, no switch** — the pool takes no routing-policy argument,
  its snapshot carries no routing gauges, and ``repro replay`` takes no
  routing-policy flag.
"""

import collections
import dataclasses
import importlib
import inspect
import itertools
import zlib

import pytest

import repro
import repro.core
from repro.core.catalog import open_index
from repro.core.irr_index import IRRIndexBuilder
from repro.core.process_pool import SupervisedServerPool, shard_of_keyword
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndexBuilder
from repro.core.server import (
    SHARD_DEGRADED,
    SHARD_DRAINED,
    SHARD_READY,
    SNAPSHOT_SCHEMA,
    PoolSnapshot,
)
from repro.core.theta import ThetaPolicy
from repro.datasets.workload import make_mixed_workload
from repro.errors import ShardUnavailableError

#: The owners of the default topic names, per shard count.
PINNED_OWNERS = {
    2: {
        "software": 1,
        "journal": 1,
        "music": 0,
        "book": 1,
        "sport": 0,
        "car": 1,
        "travel": 0,
        "food": 1,
    },
    3: {
        "software": 2,
        "journal": 2,
        "music": 2,
        "book": 2,
        "sport": 2,
        "car": 0,
        "travel": 0,
        "food": 1,
    },
    4: {
        "software": 3,
        "journal": 1,
        "music": 2,
        "book": 1,
        "sport": 2,
        "car": 1,
        "travel": 2,
        "food": 3,
    },
    8: {
        "software": 7,
        "journal": 5,
        "music": 2,
        "book": 1,
        "sport": 2,
        "car": 5,
        "travel": 6,
        "food": 7,
    },
}

KEYWORDS = tuple(PINNED_OWNERS[4])


class TestRule:
    @pytest.mark.parametrize("n_shards", sorted(PINNED_OWNERS))
    def test_pinned_owners(self, n_shards):
        owners = {kw: shard_of_keyword(kw, n_shards) for kw in KEYWORDS}
        assert owners == PINNED_OWNERS[n_shards]

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
    def test_crc32_of_the_utf8_name(self, n_shards):
        for kw in [f"kw-{i:03d}" for i in range(200)] + ["musique-é", "音楽"]:
            expected = zlib.crc32(kw.encode("utf-8")) % n_shards
            assert shard_of_keyword(kw, n_shards) == expected


class TestOneRuleNoSwitch:
    def test_constructor_takes_eleven_arguments(self):
        params = inspect.signature(SupervisedServerPool.__init__).parameters
        assert list(params) == [
            "self",
            "path",
            "n_workers",
            "cache_keywords",
            "pool_pages",
            "page_size",
            "start_method",
            "request_timeout",
            "max_retries",
            "restart_budget",
            "restart_backoff",
            "max_inflight",
        ]

    def test_routing_policy_argument_is_rejected(self, setup):
        path, _workload = setup
        # rejected at the call, before any segment or process exists
        with pytest.raises(TypeError):
            SupervisedServerPool(path, n_workers=2, dispatch="crc32")

    def test_policy_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.dispatch")

    @pytest.mark.parametrize("package", [repro, repro.core])
    def test_no_routing_policy_exports(self, package):
        exported = [name for name in package.__all__ if "dispatch" in name.lower()]
        assert exported == []
        assert all(hasattr(package, name) for name in package.__all__)

    def test_snapshot_carries_no_routing_gauges(self):
        fields = [field.name for field in dataclasses.fields(PoolSnapshot)]
        assert fields == ["health", "workers", "stats", "io"]
        assert SNAPSHOT_SCHEMA == 3


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(300, avg_degree=8, rng=51)
    profiles = zipf_profiles(graph.n, TopicSpace.default(8), rng=52)
    model = IndependentCascade(graph)
    path = str(tmp_path_factory.mktemp("routing") / "d.rr")
    policy = ThetaPolicy(epsilon=1.0, K=30, cap=200)
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=53)
    tables = builder.sample()
    builder.build(path, tables=tables)
    # The IRR file of the same sample tables, beside it (``paths``).
    IRRIndexBuilder(model, profiles, policy=policy, delta=25, rng=53).build(
        path[: -len(".rr")] + ".irr", tables=tables
    )
    workload = make_mixed_workload(
        profiles, n_queries=48, lengths=(1, 2, 3), ks=(3, 8), rng=46
    )
    return path, workload


@pytest.fixture(scope="module")
def paths(setup):
    """``{kind: path}``: the RR file of ``setup`` and its IRR twin."""
    path, _workload = setup
    return {"rr": path, "irr": path[: -len(".rr")] + ".irr"}


def _assert_same_selection(a, b):
    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.phi_q == pytest.approx(b.phi_q)


def _per_shard_oracle(path, homes, queries, n_shards=4):
    """Each query answered by a fresh reader of its own shard, in order."""
    oracles = [open_index(path) for _ in range(n_shards)]
    try:
        return [oracles[home].query(q) for home, q in zip(homes, queries)]
    finally:
        for oracle in oracles:
            oracle.close()


def _homes(queries, n_shards=4):
    return [shard_of_keyword(min(q.keywords), n_shards) for q in queries]


@pytest.mark.parametrize("kind", ["rr", "irr"])
class TestPool:
    def test_primary_keyword_and_topic_id_refs(self, kind, paths, setup):
        _path, workload = setup
        with open_index(paths[kind]) as index:
            topic_id = {name: meta.topic_id for name, meta in index.catalog.items()}
        with SupervisedServerPool(paths[kind], n_workers=4) as pool:
            for q in workload:  # the workload's refs are names
                home = shard_of_keyword(min(q.keywords), 4)
                assert pool.shard_of(q) == home
                ids = tuple(topic_id[kw] for kw in q.keywords)
                assert pool.shard_of(KBTIMQuery(ids, q.k)) == home
                mixed = (ids[0],) + q.keywords[1:]
                assert pool.shard_of(KBTIMQuery(mixed[::-1], q.k)) == home

    def test_keyword_order_does_not_move_a_query(self, kind, paths, setup):
        _path, workload = setup
        with SupervisedServerPool(paths[kind], n_workers=4) as pool:
            for q in workload:
                homes = {
                    pool.shard_of(KBTIMQuery(order, q.k))
                    for order in itertools.permutations(q.keywords)
                }
                assert homes == {shard_of_keyword(min(q.keywords), 4)}

    def test_routing_is_stateless(self, kind, paths, setup):
        _path, workload = setup
        with SupervisedServerPool(paths[kind], n_workers=4) as pool:
            idle = [pool.shard_of(q) for q in workload]
            for q in workload:
                pool.query(q)
            loaded = [pool.shard_of(q) for q in workload]
        with SupervisedServerPool(paths[kind], n_workers=4) as other:
            fresh = [other.shard_of(q) for q in workload]
        assert idle == loaded == fresh == _homes(workload)

    def test_answers_and_attributed_io_equal_the_oracle(self, kind, paths, setup):
        _path, workload = setup
        path = paths[kind]
        homes = _homes(workload)
        with open_index(path) as index:
            expected = [index.query(q) for q in workload]
        per_shard = _per_shard_oracle(path, homes, workload)
        with SupervisedServerPool(path, n_workers=4) as pool:
            before = pool.snapshot().io
            answers = [pool.query(q) for q in workload]
            after = pool.snapshot()
        for got, want, ref in zip(answers, expected, per_shard):
            _assert_same_selection(got, want)
            _assert_same_selection(got, ref)
            assert got.stats.io.read_calls == ref.stats.io.read_calls
            assert got.stats.io.bytes_read == ref.stats.io.bytes_read
        # each query ran where the rule sent it, and the per-query
        # deltas partition the pool's physical reads
        served = [part.stats.queries for part in after.workers]
        assert served == [collections.Counter(homes)[s] for s in range(4)]
        attributed = sum(a.stats.io.read_calls for a in answers)
        assert attributed == after.io.read_calls - before.read_calls > 0

    def test_query_batch_serves_each_query_at_its_home(self, kind, paths, setup):
        _path, workload = setup
        path = paths[kind]
        homes = _homes(workload)
        per_shard = _per_shard_oracle(path, homes, workload)
        with SupervisedServerPool(path, n_workers=4) as pool:
            answers = pool.query_batch(workload)
            after = pool.snapshot()
        assert len(answers) == len(workload)
        for got, ref in zip(answers, per_shard):
            _assert_same_selection(got, ref)
        served = [part.stats.queries for part in after.workers]
        assert served == [collections.Counter(homes)[s] for s in range(4)]

    def test_one_worker_owns_everything(self, kind, paths, setup):
        _path, workload = setup
        path = paths[kind]
        with open_index(path) as index:
            expected = [index.query(q) for q in workload]
        with SupervisedServerPool(path, n_workers=1) as pool:
            assert {pool.shard_of(q) for q in workload} == {0}
            answers = [pool.query(q) for q in workload]
            assert pool.snapshot().workers[0].stats.queries == len(workload)
        for got, want in zip(answers, expected):
            _assert_same_selection(got, want)
            assert got.stats.io.read_calls == want.stats.io.read_calls

    def test_warm_lands_on_the_owner_only(self, kind, paths):
        keywords = ("book", "music", "journal", "car")
        with SupervisedServerPool(paths[kind], n_workers=4) as pool:
            pool.warm(keywords)
            snapshot = pool.snapshot()
        for kw in keywords:
            for shard, part in enumerate(snapshot.workers):
                resident = kw in part.cached_keywords
                assert resident == (shard == shard_of_keyword(kw, 4))

    def test_topic_id_warm_lands_like_its_name(self, kind, paths):
        with open_index(paths[kind]) as index:
            topic_id = {name: meta.topic_id for name, meta in index.catalog.items()}
        with SupervisedServerPool(paths[kind], n_workers=4) as pool:
            pool.warm([topic_id[kw] for kw in KEYWORDS])
            snapshot = pool.snapshot()
        owned = collections.Counter(shard_of_keyword(kw, 4) for kw in KEYWORDS)
        for shard, part in enumerate(snapshot.workers):
            assert part.stats.warm_loads == owned[shard]
            assert sorted(part.cached_keywords) == sorted(
                kw for kw in KEYWORDS if shard_of_keyword(kw, 4) == shard
            )

    def test_rewarm_loads_and_reads_nothing(self, kind, paths):
        with SupervisedServerPool(paths[kind], n_workers=4) as pool:
            pool.warm(KEYWORDS)
            first = pool.snapshot()
            pool.warm(KEYWORDS)
            second = pool.snapshot()
        assert second.stats.warm_loads == first.stats.warm_loads == len(KEYWORDS)
        assert second.io.pages_read == first.io.pages_read
        if kind == "rr":  # IRR issues its first-occurrence read on every lookup
            assert second.io.read_calls == first.io.read_calls

    def test_evicted_keywords_read_again_at_home(self, kind, paths):
        path = paths[kind]
        queries = [KBTIMQuery((kw,), 5) for kw in KEYWORDS]
        cold = _per_shard_oracle(path, _homes(queries), queries)
        with SupervisedServerPool(path, n_workers=4) as pool:
            pool.warm(KEYWORDS)
            pool.evict_all()
            assert all(not part.cached_keywords for part in pool.snapshot().workers)
            answers = [pool.query(q) for q in queries]
        for got, ref in zip(answers, cold):
            _assert_same_selection(got, ref)
            assert got.stats.io.read_calls == ref.stats.io.read_calls > 0

    def test_drained_home_fails_fast_and_nothing_moves(self, kind, paths):
        path = paths[kind]
        queries = [KBTIMQuery((kw,), 3) for kw in KEYWORDS]
        homes = _homes(queries)
        per_shard = _per_shard_oracle(path, homes, queries)
        victim = shard_of_keyword("music", 4)
        with SupervisedServerPool(path, n_workers=4) as pool:
            pool.drain(victim)
            assert pool.health().shards[victim].state == SHARD_DRAINED
            for q, home, ref in zip(queries, homes, per_shard):
                assert pool.shard_of(q) == home
                if home == victim:
                    with pytest.raises(ShardUnavailableError) as excinfo:
                        pool.query(q)
                    assert excinfo.value.shard == victim
                    assert excinfo.value.retry_after is None
                else:
                    _assert_same_selection(pool.query(q), ref)
            pool.restore(victim)
            assert pool.health().shards[victim].state == SHARD_READY
            owned = [q for q, home in zip(queries, homes) if home == victim]
            for q in owned:
                assert pool.query(q).seeds
            assert pool.snapshot().workers[victim].stats.queries == len(owned)


def test_warmed_keywords_serve_with_zero_reads(paths):
    # RR only: an IRR lookup always issues its first-occurrence read
    keywords = ("book", "music", "journal", "car")
    with SupervisedServerPool(paths["rr"], n_workers=4) as pool:
        pool.warm(keywords)
        before = pool.snapshot()
        answers = [
            pool.query(KBTIMQuery((kw,), 5)) for kw in keywords for _ in range(3)
        ]
        after = pool.snapshot()
    assert all(a.stats.io.read_calls == 0 for a in answers)
    assert after.io.read_calls == before.io.read_calls


def _kill_worker(pool: SupervisedServerPool, shard: int) -> None:
    handle = pool._workers[shard]
    handle.process.kill()
    handle.process.join(timeout=10.0)


@pytest.mark.chaos
def test_degraded_home_fails_fast_and_nothing_moves(paths):
    path = paths["rr"]
    queries = [KBTIMQuery((kw,), 3) for kw in KEYWORDS]
    homes = _homes(queries)
    per_shard = _per_shard_oracle(path, homes, queries)
    victim = shard_of_keyword("music", 4)
    probe = KBTIMQuery(("music",), 3)
    with SupervisedServerPool(
        path, n_workers=4, restart_backoff=0.0, restart_budget=1
    ) as pool:
        _kill_worker(pool, victim)
        assert pool.query(probe).seeds  # the one budgeted restart heals it
        _kill_worker(pool, victim)
        with pytest.raises(ShardUnavailableError) as excinfo:
            pool.query(probe)  # budget spent: degraded, not rerouted
        assert excinfo.value.shard == victim
        assert pool.health().shards[victim].state == SHARD_DEGRADED
        for q, home, ref in zip(queries, homes, per_shard):
            assert pool.shard_of(q) == home
            if home == victim:
                with pytest.raises(ShardUnavailableError):
                    pool.query(q)
            else:
                got = pool.query(q)
                _assert_same_selection(got, ref)
                assert got.stats.io.read_calls == ref.stats.io.read_calls
        pool.restore(victim)
        assert pool.health().shards[victim].state == SHARD_READY
        assert pool.query(probe).seeds
