"""Tests for the incremental IRR index (repro.core.irr_index) — Alg. 3-4.

The headline property is Theorem 3: Algorithm 4's seed scores equal
Algorithm 2's, verified here on shared sample tables and fuzzed in
test_property_theorem3.py.
"""

import numpy as np
import pytest

from repro.core.irr_index import (
    IRRIndex,
    IRRIndexBuilder,
    partition_keyword,
)
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.errors import IndexError_, QueryError
from repro.utils.rrsets import FlatRRSets


@pytest.fixture(scope="module")
def world():
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(300, avg_degree=8, rng=42)
    topics = TopicSpace.default(8)
    profiles = zipf_profiles(graph.n, topics, rng=44)
    return graph, topics, profiles, IndependentCascade(graph)


@pytest.fixture(scope="module")
def indexes(world, tmp_path_factory):
    """RR and IRR indexes built from the SAME sample tables."""
    _graph, _topics, profiles, model = world
    policy = ThetaPolicy(epsilon=1.0, K=50, cap=300)
    tmp = tmp_path_factory.mktemp("irr")
    rr_builder = RRIndexBuilder(model, profiles, policy=policy, rng=5)
    tables = rr_builder.sample()
    rr_path = str(tmp / "index.rr")
    irr_path = str(tmp / "index.irr")
    rr_builder.build(rr_path, tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=20, rng=5).build(
        irr_path, tables=tables
    )
    return rr_path, irr_path


class TestPartitioning:
    """Algorithm 3's structural invariants (mirrors Figure 3)."""

    @pytest.fixture()
    def rr_sets(self):
        return [
            np.array([0, 4]),
            np.array([3, 5]),
            np.array([3]),
            np.array([1, 2]),
            np.array([1, 2, 6, 0, 4][:: -1][::-1]),  # [1,2,6,0,4] unsorted ok for test
            np.array([2, 4]),
        ]

    @staticmethod
    def partitions(rr_sets, delta):
        """``partition_keyword``'s CSR output as per-partition lists:
        ``il[p]`` = ``[(vertex, set ids)]``, ``ir[p]`` = claimed set ids,
        ``ip`` = ``[(vertex, first set)]``.  The literal ``rr_sets`` are
        wrapped once into the samplers' ``FlatRRSets``."""
        (keys, ptr, ids), (ir_sets, part_ptr), (ip_keys, firsts) = partition_keyword(
            FlatRRSets.from_sets(rr_sets), delta
        )
        lists = [
            (int(k), ids[ptr[i] : ptr[i + 1]].tolist()) for i, k in enumerate(keys)
        ]
        il = [lists[lo : lo + delta] for lo in range(0, len(lists), delta)]
        ir = [
            ir_sets[part_ptr[p] : part_ptr[p + 1]].tolist()
            for p in range(len(part_ptr) - 1)
        ]
        return il, ir, list(zip(ip_keys.tolist(), firsts.tolist()))

    def test_lists_sorted_by_length_desc(self):
        rr_sets = [np.array([0, 1]), np.array([1]), np.array([1, 2])]
        il, _ir, _ip = self.partitions(rr_sets, delta=10)
        lengths = [len(ids) for _v, ids in il[0]]
        assert lengths == sorted(lengths, reverse=True)
        assert il[0][0] == (1, [0, 1, 2])  # vertex 1 appears in all three sets
        assert [v for v, _ in il[0]] == [1, 0, 2]  # ties: smaller vertex first

    def test_partitions_have_delta_users(self):
        rr_sets = [np.array([v]) for v in range(10)]
        il, ir, _ip = self.partitions(rr_sets, delta=3)
        assert [len(p) for p in il] == [3, 3, 3, 1]
        assert len(ir) == len(il)

    def test_ir_partitions_disjoint_and_complete(self):
        rng = np.random.default_rng(3)
        rr_sets = [
            np.unique(rng.integers(0, 30, size=rng.integers(1, 6)))
            for _ in range(40)
        ]
        il, ir, _ip = self.partitions(rr_sets, delta=5)
        seen = []
        for part in ir:
            seen.extend(part)
        assert sorted(seen) == list(range(40))  # every set exactly once
        # Algorithm 3 lines 9-13, literally: a partition claims every
        # not-yet-claimed set any of its lists touches.
        claimed = set()
        for lists, part in zip(il, ir):
            touched = {s for _v, ids in lists for s in ids}
            assert part == sorted(touched - claimed)
            claimed |= touched

    def test_ir_assignment_to_earliest_partition(self):
        # Set 0 contains the longest-list vertex -> must land in IR^1.
        rr_sets = [np.array([7, 8]), np.array([7]), np.array([8]), np.array([7, 9])]
        il, ir, _ip = self.partitions(rr_sets, delta=1)
        # vertex 7 has the longest list (3 sets): partition 0 claims 0,1,3.
        assert il[0][0][0] == 7
        assert ir[0] == [0, 1, 3]
        assert ir[1] == [2]

    def test_ip_first_occurrence(self):
        rr_sets = [np.array([5]), np.array([2, 5]), np.array([2])]
        _il, _ir, ip = self.partitions(rr_sets, delta=10)
        assert ip == [(2, 1), (5, 0)]

    def test_empty_collection(self):
        il, ir, ip = self.partitions([], delta=4)
        assert il == [] and ir == [] and ip == []

    def test_empty_sets_are_claimed_by_no_partition(self):
        rr_sets = [np.array([3]), np.array([], dtype=np.int64), np.array([3, 4])]
        _il, ir, _ip = self.partitions(rr_sets, delta=1)
        assert ir == [[0, 2], []]


class TestBuild:
    def test_builder_rejects_bad_delta(self, world):
        _g, _t, profiles, model = world
        with pytest.raises(IndexError_):
            IRRIndexBuilder(model, profiles, delta=0)

    def test_catalog_matches_rr(self, indexes):
        rr_path, irr_path = indexes
        with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
            assert set(rr.keywords()) == set(irr.keywords())
            for kw in rr.keywords():
                assert rr.catalog[kw].theta == irr.catalog[kw].theta
                assert rr.catalog[kw].phi_w == pytest.approx(irr.catalog[kw].phi_w)


class TestQuery:
    def test_returns_k_seeds(self, indexes):
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            answer = index.query(KBTIMQuery(["music", "book"], 5))
            assert len(answer.seeds) == 5

    def test_k_above_K_rejected(self, indexes):
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            with pytest.raises(QueryError):
                index.query(KBTIMQuery(["music"], 51))

    def test_deterministic(self, indexes):
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            q = KBTIMQuery(["music", "sport"], 4)
            assert index.query(q).seeds == index.query(q).seeds

    def test_incremental_loading_tracked(self, indexes):
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            answer = index.query(KBTIMQuery(["music", "book"], 3))
            assert answer.stats.partitions_loaded >= 1
            assert answer.stats.rr_sets_loaded >= 1
            assert answer.stats.io.read_calls >= 1

    def test_io_grows_with_k(self, indexes):
        """Table 6's shape: larger Q.k forces more partition loads."""
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            small = index.query(KBTIMQuery(["music", "book"], 1))
            large = index.query(KBTIMQuery(["music", "book"], 30))
            assert (
                large.stats.partitions_loaded >= small.stats.partitions_loaded
            )

    def test_unknown_keyword(self, indexes):
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            with pytest.raises(IndexError_):
                index.query(KBTIMQuery(["nope"], 2))

    def test_mixed_form_duplicate_keyword_rejected(self, indexes):
        """Same canonicalisation as the RR reader: an id plus the name it
        resolves to must not double-count the keyword."""
        _rr, irr_path = indexes
        with IRRIndex(irr_path) as index:
            music_id = index.catalog["music"].topic_id
            with pytest.raises(QueryError, match="duplicate keyword"):
                index.query(KBTIMQuery([music_id, "music"], 3))


class TestTheorem3:
    """Algorithm 4's impact scores equal Algorithm 2's (Theorem 3)."""

    @pytest.mark.parametrize(
        "keywords,k",
        [
            (("music",), 1),
            (("music",), 5),
            (("music", "book"), 3),
            (("music", "book", "sport"), 8),
            (("software", "journal", "music", "book"), 12),
        ],
    )
    def test_scores_match(self, indexes, keywords, k):
        rr_path, irr_path = indexes
        query = KBTIMQuery(keywords, k)
        with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
            a = rr.query(query)
            b = irr.query(query)
        assert a.seeds == b.seeds
        assert a.marginal_coverages == b.marginal_coverages
        assert a.theta == b.theta
        assert a.phi_q == pytest.approx(b.phi_q)
        assert a.estimated_influence == pytest.approx(b.estimated_influence)

    def test_irr_loads_no_more_sets_than_rr(self, indexes):
        """The design goal: incremental loading touches fewer RR sets."""
        rr_path, irr_path = indexes
        query = KBTIMQuery(("music", "book"), 3)
        with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
            rr.query(query)  # same workload on both readers
            b = irr.query(query)
        # IRR may load the whole thing in the worst case, but never more
        # RR sets than exist, and typically fewer than RR's full prefix.
        total_sets = sum(
            irr.catalog[kw].n_sets for kw in ("music", "book")
        )
        assert b.stats.rr_sets_loaded <= total_sets
