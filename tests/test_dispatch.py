"""Dispatch property suite: the contract any shard-selection policy must meet.

Dispatch is a cache-locality and load-balance policy, never a
correctness decision — every worker serves the same immutable index, so
the suite pins exactly that boundary:

* **Legacy exactness** — ``dispatch="crc32"`` reproduces the historical
  ``crc32(primary keyword) % n_shards`` mapping byte-for-byte.
* **Minimal disruption** — removing one shard from the rendezvous
  candidate set remaps only the keywords that shard owned (~1/N of the
  keyspace, bound asserted for N in {2, 4, 8}); restoring it remaps
  exactly those keywords back.
* **Determinism under frozen weights** — with no traffic between calls,
  ``peek`` is repeatable and instance-independent (the draw is a keyed
  digest, so every process agrees).
* **Balance under Zipf** — the PR 5 skew scenario: a 48-query Zipf mix
  that concentrates >= 30/48 queries on one of 4 shards under crc32
  spreads to <= ceil(1.5 * 48 / 4) = 18 per shard under
  rendezvous + hot-keyword replication, asserted via per-shard
  ``ServerStats`` query counts.
* **Replica-answer equivalence** — whichever replica serves a query,
  answers are bit-identical and per-query I/O accounting stays exact
  (attributed reads sum to the pool's physical totals; a fully warmed
  pool serves with zero reads, like a warmed single server).
"""

import collections
import math
import random

import pytest

from repro.core.dispatch import (
    Crc32Dispatcher,
    Dispatcher,
    FrequencySketch,
    RendezvousDispatcher,
    make_dispatcher,
    shard_of_keyword,
)
from repro.core.process_pool import SupervisedServerPool
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.datasets.workload import make_mixed_workload


KEYWORDS = [f"kw-{i:03d}" for i in range(400)]


def _mapping(dispatcher, candidates=None):
    return {kw: dispatcher.peek((kw,), candidates) for kw in KEYWORDS}


# ---------------------------------------------------------------------------
# pure-policy properties (no index required)
# ---------------------------------------------------------------------------
class TestCrc32Exact:
    """``dispatch="crc32"`` is the legacy mapping, byte-for-byte."""

    def test_matches_legacy_hash(self):
        d = Crc32Dispatcher(4)
        for kw in KEYWORDS:
            assert d.peek((kw,)) == shard_of_keyword(kw, 4)

    def test_primary_keyword_rule(self):
        d = Crc32Dispatcher(4)
        assert d.peek(("music", "book")) == shard_of_keyword("book", 4)
        assert d.route(("zebra", "alpha")) == shard_of_keyword("alpha", 4)

    def test_candidates_ignored_by_design(self):
        d = Crc32Dispatcher(4)
        home = d.peek(("music",))
        others = [s for s in range(4) if s != home]
        assert d.peek(("music",), others) == home  # static: does not move

    def test_single_home_for_warm(self):
        d = Crc32Dispatcher(4)
        assert d.homes_of_name("music") == (shard_of_keyword("music", 4),)


class TestMinimalDisruption:
    """Loss/restore of a shard remaps ~1/N of keywords, and only those."""

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_loss_moves_only_the_lost_shards_keys(self, n_shards):
        d = RendezvousDispatcher(n_shards)
        base = _mapping(d)
        for victim in range(n_shards):
            survivors = [s for s in range(n_shards) if s != victim]
            degraded = _mapping(d, survivors)
            for kw in KEYWORDS:
                if base[kw] != victim:
                    # a keyword whose home survived must not move
                    assert degraded[kw] == base[kw]
                else:
                    assert degraded[kw] != victim
            moved = sum(1 for kw in KEYWORDS if degraded[kw] != base[kw])
            # ~1/N of the keyspace, with generous sampling slack
            assert 0.4 * len(KEYWORDS) / n_shards <= moved
            assert moved <= 1.8 * len(KEYWORDS) / n_shards

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_restore_remaps_exactly_the_same_keys_back(self, n_shards):
        d = RendezvousDispatcher(n_shards)
        base = _mapping(d)
        for victim in range(n_shards):
            survivors = [s for s in range(n_shards) if s != victim]
            _mapping(d, survivors)  # loss window (pure peeks)
            assert _mapping(d) == base  # restore: identical, not just ~1/N


class TestFrozenWeightDeterminism:
    """With frozen weights, dispatch is a pure function of the keywords."""

    def test_peek_is_repeatable_and_side_effect_free(self):
        d = RendezvousDispatcher(4)
        first = _mapping(d)
        assert _mapping(d) == first

    def test_instance_independent(self):
        # two fresh dispatchers (e.g. parent and an external router)
        # agree on every keyword: the draw is a keyed digest, not the
        # salted builtin hash.
        assert _mapping(RendezvousDispatcher(4)) == _mapping(
            RendezvousDispatcher(4)
        )

    def test_route_equals_peek_on_same_state(self):
        d = RendezvousDispatcher(4)
        for kw in KEYWORDS[:50]:
            expected = d.peek((kw,))
            assert d.route((kw,)) == expected

    def test_balanced_keyspace_partition(self):
        counts = collections.Counter(_mapping(RendezvousDispatcher(4)).values())
        assert sum(counts.values()) == len(KEYWORDS)
        # 400 keys over 4 shards: each shard owns a fair share
        assert max(counts.values()) <= 1.5 * len(KEYWORDS) / 4
        assert min(counts.values()) >= 0.5 * len(KEYWORDS) / 4


class TestZipfBalance:
    """Routing a Zipf stream keeps per-shard counts near the mean."""

    def test_head_traffic_fans_out(self):
        d = RendezvousDispatcher(4)
        rng = random.Random(9)
        universe = [f"topic-{i}" for i in range(32)]
        stream = [
            universe[min(int(rng.paretovariate(1.0)) - 1, len(universe) - 1)]
            for _ in range(600)
        ]
        for kw in stream:
            d.route((kw,))
        assigned = d.load_snapshot()["assigned"]
        mean = sum(assigned) / len(assigned)
        assert max(assigned) / mean <= 2.0

    def test_hot_keyword_replicates(self):
        d = RendezvousDispatcher(4, hot_min_count=3.0)
        cold_home = d.peek(("hot-topic",))
        assert d.homes_of_name("hot-topic") == (cold_home,)
        served = {d.route(("hot-topic",)) for _ in range(20)}
        assert "hot-topic" in d.load_snapshot()["hot"]
        homes = d.homes_of_name("hot-topic")
        assert len(homes) == 2  # default hot_replicas
        assert cold_home in homes
        assert served == set(homes)  # head traffic fanned across replicas

    def test_cold_keyword_stays_put(self):
        d = RendezvousDispatcher(4)
        home = d.peek(("rare-topic",))
        assert all(d.route(("rare-topic",)) == home for _ in range(2))


class TestPowerOfTwoChoices:
    """A multi-keyword query may be homed wherever a keyword is resident."""

    def test_choice_is_a_valid_home(self):
        d = RendezvousDispatcher(8)
        a_home = d.route(("alpha",))
        b_home = d.route(("beta",))
        chosen = d.peek(("alpha", "beta"))
        assert chosen in {a_home, b_home}

    def test_prefers_less_loaded_valid_home(self):
        d = RendezvousDispatcher(8)
        a_home = d.peek(("alpha",))
        b_home = d.peek(("beta",))
        if a_home == b_home:
            pytest.skip("keywords hash to one shard; nothing to choose")
        # pile synthetic load on alpha's home: 2-choices must pick beta's
        d.begin(a_home, units=5)
        assert d.peek(("alpha", "beta")) == b_home
        d.complete(a_home, 0.0, units=5)

    def test_residency_makes_a_shard_a_valid_home(self):
        d = RendezvousDispatcher(8)
        served = d.route(("alpha", "beta", "gamma"))
        # all three keywords are now resident where the query ran, so a
        # follow-up on any subset may legally land there again
        assert d.peek(("gamma",), None) in {served, d._rank("gamma", range(8))[0]}


class TestCandidateSet:
    """Excluded (degraded/drained) shards are never selected."""

    def test_peek_and_route_respect_candidates(self):
        d = RendezvousDispatcher(4)
        for kw in KEYWORDS[:100]:
            assert d.route((kw,), [1, 2, 3]) != 0

    def test_hot_replicas_respect_candidates(self):
        d = RendezvousDispatcher(4, hot_min_count=2.0)
        for _ in range(12):
            d.route(("hot-topic",))
        assert 0 not in d.homes_of_name("hot-topic", [1, 2, 3])

    def test_empty_candidates_rejected(self):
        d = RendezvousDispatcher(4)
        with pytest.raises(ValueError):
            d.peek(("music",), [])
        with pytest.raises(ValueError):
            d.peek(("music",), [4])


class TestFrequencySketch:
    def test_decay_halves_and_fades(self):
        sketch = FrequencySketch(decay_every=8, capacity=16)
        for _ in range(7):
            sketch.observe("a")
        assert sketch.count("a") == 7.0
        sketch.observe("b")  # 8th observation triggers decay
        assert sketch.count("a") == 3.5
        assert sketch.count("b") == 0.5  # one sighting barely survives...
        for _ in range(8):
            sketch.observe("a")
        assert sketch.count("b") == 0.0  # ...and fades on the next decay

    def test_capacity_keeps_the_hottest(self):
        sketch = FrequencySketch(decay_every=1000, capacity=2)
        for name, n in (("a", 6), ("b", 4), ("c", 2)):
            for _ in range(n):
                sketch.observe(name)
        sketch._decay()
        assert sketch.hot(3) == ("a", "b")

    def test_hot_order_is_deterministic(self):
        sketch = FrequencySketch()
        for name in ("b", "a", "c", "a", "b", "c"):
            sketch.observe(name)
        assert sketch.hot(3, min_count=2.0) == ("a", "b", "c")  # ties by name


class TestMakeDispatcher:
    def test_names_and_passthrough(self):
        assert isinstance(make_dispatcher("crc32", 4), Crc32Dispatcher)
        assert isinstance(make_dispatcher("rendezvous", 4), RendezvousDispatcher)
        custom = RendezvousDispatcher(4)
        assert make_dispatcher(custom, 4) is custom

    def test_rejects_unknown_and_mis_sized(self):
        with pytest.raises(ValueError):
            make_dispatcher("round-robin", 4)
        with pytest.raises(ValueError):
            make_dispatcher(RendezvousDispatcher(2), 4)
        with pytest.raises(ValueError):
            Dispatcher(0)


# ---------------------------------------------------------------------------
# pool-level: the PR 5 skew scenario and replica-answer equivalence
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(300, avg_degree=8, rng=51)
    profiles = zipf_profiles(graph.n, TopicSpace.default(8), rng=52)
    path = str(tmp_path_factory.mktemp("dispatch") / "d.rr")
    RRIndexBuilder(
        IndependentCascade(graph),
        profiles,
        policy=ThetaPolicy(epsilon=1.0, K=30, cap=200),
        rng=53,
    ).build(path)
    return path, profiles


@pytest.fixture(scope="module")
def skewed_workload(setup):
    """The PR 5 scenario: 48 Zipf-mixed queries, one dominant primary."""
    _path, profiles = setup
    return make_mixed_workload(
        profiles, n_queries=48, lengths=(1, 2, 3), ks=(3, 8), rng=46
    )


@pytest.fixture(scope="module")
def expected(setup, skewed_workload):
    path, _profiles = setup
    with RRIndex(path) as index:
        return [index.query(q) for q in skewed_workload]


def _assert_same_selection(a, b):
    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.phi_q == pytest.approx(b.phi_q)


def _serve_and_count(pool, workload):
    answers = [pool.query(q) for q in workload]
    return answers, [part.stats.queries for part in pool.snapshot().workers]


class TestPR5SkewRegression:
    """48 Zipf queries, 4 shards: crc32 piles >= 30 on one, rendezvous <= 18."""

    BOUND = math.ceil(1.5 * 48 / 4)  # 18

    def test_crc32_concentrates_the_head(self, setup, skewed_workload, expected):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=4, dispatch="crc32") as pool:
            answers, counts = _serve_and_count(pool, skewed_workload)
        assert sum(counts) == 48
        assert max(counts) >= 30  # the measured BENCH_pr5-style pile-up (39)
        for a, b in zip(answers, expected):
            _assert_same_selection(a, b)

    def test_rendezvous_spreads_it(self, setup, skewed_workload, expected):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=4, dispatch="rendezvous") as pool:
            before = pool.snapshot().io
            answers, counts = _serve_and_count(pool, skewed_workload)
            attributed = sum(a.stats.io.read_calls for a in answers)
            physical = pool.snapshot().io.read_calls - before.read_calls
        assert sum(counts) == 48
        assert max(counts) <= self.BOUND
        # bit-identical answers, whichever replica served each query
        for a, b in zip(answers, expected):
            _assert_same_selection(a, b)
        # exact I/O accounting: per-query attribution sums to the pool's
        # physical reads (replication changes locality, never the books)
        assert attributed == physical

    def test_process_pool_parity_when_idle(self, setup, skewed_workload):
        """An idle pool routes like an idle dispatcher in any other process."""
        path, _profiles = setup
        idle = RendezvousDispatcher(4)
        with SupervisedServerPool(path, n_workers=4, dispatch="rendezvous") as pool:
            for query in skewed_workload:  # the workload's refs are names
                assert pool.shard_of(query) == idle.peek(query.keywords)

    def test_process_pool_spreads_too(self, setup, skewed_workload, expected):
        """The same bound with the dispatcher handed in pre-built."""
        path, _profiles = setup
        with SupervisedServerPool(
            path, n_workers=4, dispatch=RendezvousDispatcher(4)
        ) as pool:
            answers, counts = _serve_and_count(pool, skewed_workload)
        assert sum(counts) == 48
        assert max(counts) <= self.BOUND
        for a, b in zip(answers, expected):
            _assert_same_selection(a, b)


class TestReplicaEquivalence:
    """Any replica may answer: identical bits, exact I/O, either way."""

    def test_hot_queries_span_replicas_with_identical_answers(
        self, setup, expected, skewed_workload
    ):
        path, _profiles = setup
        hot_query = KBTIMQuery(("book",), 5)
        with RRIndex(path) as index:
            want = index.query(hot_query)
        with SupervisedServerPool(path, n_workers=4, dispatch="rendezvous") as pool:
            answers = [pool.query(hot_query) for _ in range(16)]
            served = {
                shard
                for shard, part in enumerate(pool.snapshot().workers)
                if part.stats.queries > 0
            }
        assert len(served) >= 2  # the head actually fanned out
        for answer in answers:
            _assert_same_selection(answer, want)

    def test_warm_covers_every_replica_exactly(self, setup):
        """After warm(), every replica serves with zero reads — like a
        warmed single server — so replica choice is invisible in the
        I/O books, not just in the answers."""
        path, _profiles = setup
        keywords = ("book", "music", "journal", "car")
        with SupervisedServerPool(path, n_workers=4, dispatch="rendezvous") as pool:
            # make 'book' hot so it has two replicas, then warm everything
            for _ in range(8):
                pool.query(KBTIMQuery(("book",), 3))
            pool.warm(keywords)
            homes = pool.dispatcher.homes_of_name("book")
            assert len(homes) == 2
            before = pool.snapshot()
            for shard in homes:
                assert "book" in before.workers[shard].cached_keywords
            answers = [
                pool.query(KBTIMQuery((kw,), 5)) for kw in keywords for _ in range(3)
            ]
            after = pool.snapshot()
        assert all(a.stats.io.read_calls == 0 for a in answers)
        assert after.io.read_calls == before.io.read_calls  # zero physical reads
