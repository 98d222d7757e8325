"""Edge-case tests for the IRR NRA query loop (Algorithm 4 corners)."""

import pytest

from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.graph.digraph import DiGraph
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace


def build_pair(graph, profiles, tmp_path, *, delta, policy=None, seed=5):
    """Build RR + IRR from shared samples; return open readers' paths."""
    policy = policy or ThetaPolicy(epsilon=1.0, K=20, cap=60, min_theta=8)
    from repro.propagation.ic import IndependentCascade

    model = IndependentCascade(graph)
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=seed)
    tables = builder.sample()
    rr_path = str(tmp_path / "e.rr")
    irr_path = str(tmp_path / "e.irr")
    builder.build(rr_path, tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=delta, rng=seed).build(
        irr_path, tables=tables
    )
    return rr_path, irr_path


@pytest.fixture()
def tiny_world():
    graph = DiGraph.from_edges(
        6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5), (2, 3)]
    )
    topics = TopicSpace(("alpha", "beta"))
    profiles = ProfileStore.from_dict(
        6,
        topics,
        {
            0: {"alpha": 1.0},
            1: {"alpha": 0.5, "beta": 0.5},
            2: {"beta": 1.0},
            3: {"alpha": 0.2, "beta": 0.8},
            4: {"alpha": 1.0},
            # user 5 has no interests at all
        },
    )
    return graph, profiles


class TestDeltaOne:
    """δ = 1: one user per partition — maximal incrementality."""

    def test_matches_rr(self, tiny_world, tmp_path):
        graph, profiles = tiny_world
        rr_path, irr_path = build_pair(graph, profiles, tmp_path, delta=1)
        for keywords in (("alpha",), ("beta",), ("alpha", "beta")):
            for k in (1, 3, 6):
                query = KBTIMQuery(keywords, k)
                with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
                    a, b = rr.query(query), irr.query(query)
                assert (a.seeds, a.marginal_coverages) == (
                    b.seeds,
                    b.marginal_coverages,
                ), (keywords, k)


class TestKEqualsN:
    """Q.k = |V| forces the zero-marginal filler path."""

    def test_all_vertices_returned(self, tiny_world, tmp_path):
        graph, profiles = tiny_world
        rr_path, irr_path = build_pair(graph, profiles, tmp_path, delta=2)
        query = KBTIMQuery(("alpha", "beta"), 6)
        with IRRIndex(irr_path) as irr:
            answer = irr.query(query)
        assert sorted(answer.seeds) == list(range(6))
        with RRIndex(rr_path) as rr:
            rr_answer = rr.query(query)
        assert rr_answer.seeds == answer.seeds
        assert rr_answer.marginal_coverages == answer.marginal_coverages


class TestSingleUserKeyword:
    def test_keyword_with_one_relevant_user(self, tmp_path):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        topics = TopicSpace(("niche", "broad"))
        profiles = ProfileStore.from_dict(
            4,
            topics,
            {
                0: {"broad": 1.0},
                1: {"broad": 1.0},
                2: {"broad": 0.5, "niche": 0.5},
                3: {"broad": 1.0},
            },
        )
        rr_path, irr_path = build_pair(graph, profiles, tmp_path, delta=1)
        query = KBTIMQuery(("niche",), 2)
        with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
            a = rr.query(query)
            b = irr.query(query)
        assert a.seeds == b.seeds
        assert a.marginal_coverages == b.marginal_coverages
        # All niche RR sets are rooted at user 2, so the top seed must be
        # an ancestor of (or equal to) user 2 on the chain.
        assert b.seeds[0] in (0, 1, 2)


class TestIPShortCircuit:
    """Vertices beyond the active prefix score exactly 0 via IP_w."""

    def test_irrelevant_vertices_get_zero_marginals(self, tiny_world, tmp_path):
        graph, profiles = tiny_world
        _rr, irr_path = build_pair(graph, profiles, tmp_path, delta=2)
        with IRRIndex(irr_path) as irr:
            answer = irr.query(KBTIMQuery(("alpha",), 6))
        # Seeds past the covered mass must carry 0 marginal, and every
        # marginal must be non-increasing (greedy order).
        marginals = list(answer.marginal_coverages)
        assert marginals == sorted(marginals, reverse=True)
        assert marginals[-1] >= 0


class TestStatsSanity:
    def test_partitions_bounded_by_catalog(self, tiny_world, tmp_path):
        graph, profiles = tiny_world
        _rr, irr_path = build_pair(graph, profiles, tmp_path, delta=1)
        with IRRIndex(irr_path) as irr:
            total_partitions = sum(
                irr._partition_info[kw][0] for kw in irr.keywords()
            )
            answer = irr.query(KBTIMQuery(tuple(irr.keywords()), 6))
        assert answer.stats.partitions_loaded <= total_partitions
