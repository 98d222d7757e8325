"""End-to-end integration tests across the full stack.

These tie together the paper's claims: the index pipeline answers KB-TIM
queries with the quality of online WRIS at a fraction of the query cost,
targeted answers differ from untargeted ones, and every propagation model
flows through the same machinery.
"""

import pytest

from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.core.wris import ris_query, wris_query
from repro.datasets.paper_example import (
    NODE_IDS,
    paper_example_graph,
    paper_example_profiles,
)
from repro.propagation.exact import exact_optimal_seed_set
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.propagation.simulate import estimate_spread


class TestPaperExampleEndToEnd:
    """The Figure 1 world through the whole pipeline."""

    @pytest.fixture(scope="class")
    def world(self):
        graph = paper_example_graph()
        profiles = paper_example_profiles()
        return graph, profiles, IndependentCascade(graph)

    @pytest.fixture(scope="class")
    def index_paths(self, world, tmp_path_factory):
        graph, profiles, model = world
        policy = ThetaPolicy(epsilon=0.3, K=5, cap=6000, min_theta=2000)
        tmp = tmp_path_factory.mktemp("fig1")
        builder = RRIndexBuilder(model, profiles, policy=policy, rng=1)
        tables = builder.sample()
        rr_path = str(tmp / "fig1.rr")
        irr_path = str(tmp / "fig1.irr")
        builder.build(rr_path, tables=tables)
        IRRIndexBuilder(model, profiles, policy=policy, delta=2, rng=1).build(
            irr_path, tables=tables
        )
        return rr_path, irr_path

    def test_rr_index_finds_near_optimal_music_seeds(self, world, index_paths):
        graph, profiles, _model = world
        rr_path, _ = index_paths
        weights = profiles.phi_vector(["music"])
        _opt_seeds, opt = exact_optimal_seed_set(graph, 2, weights)
        with RRIndex(rr_path) as index:
            answer = index.query(KBTIMQuery(["music"], 2))
        from repro.propagation.exact import exact_spread

        achieved = exact_spread(graph, sorted(answer.seeds), weights)
        assert achieved >= 0.9 * opt

    def test_irr_matches_rr_on_fig1(self, index_paths):
        rr_path, irr_path = index_paths
        for keywords in (("music",), ("music", "book"), ("car",)):
            query = KBTIMQuery(keywords, 2)
            with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
                a, b = rr.query(query), irr.query(query)
            assert (a.seeds, a.marginal_coverages) == (
                b.seeds,
                b.marginal_coverages,
            )

    def test_targeted_differs_from_untargeted(self, world):
        graph, profiles, model = world
        # Untargeted optimum is {e, g}; targeted music optimum includes e
        # but swaps g (who only cares about cars) for a music-relevant user.
        untargeted = ris_query(model, 2, theta_override=20_000, rng=2)
        targeted = wris_query(
            model,
            profiles,
            KBTIMQuery(["music"], 2),
            theta_override=20_000,
            rng=2,
        )
        assert set(targeted.seeds) != set(untargeted.seeds)
        assert NODE_IDS["e"] in targeted.seeds


class TestSyntheticEndToEnd:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.graph.generators import twitter_like
        from repro.profiles.generators import zipf_profiles
        from repro.profiles.topics import TopicSpace

        graph = twitter_like(400, avg_degree=10, rng=51)
        topics = TopicSpace.default(8)
        profiles = zipf_profiles(graph.n, topics, rng=52)
        return graph, topics, profiles, IndependentCascade(graph)

    @pytest.fixture(scope="class")
    def index_paths(self, world, tmp_path_factory):
        _g, _t, profiles, model = world
        policy = ThetaPolicy(epsilon=1.0, K=50, cap=400)
        tmp = tmp_path_factory.mktemp("synth")
        builder = RRIndexBuilder(model, profiles, policy=policy, rng=3)
        tables = builder.sample()
        rr_path = str(tmp / "s.rr")
        irr_path = str(tmp / "s.irr")
        builder.build(rr_path, tables=tables)
        IRRIndexBuilder(model, profiles, policy=policy, delta=50, rng=3).build(
            irr_path, tables=tables
        )
        return rr_path, irr_path

    def test_index_quality_matches_online(self, world, index_paths):
        _g, _t, profiles, model = world
        rr_path, _ = index_paths
        query = KBTIMQuery(["music", "book", "software"], 10)
        weights = profiles.phi_vector(query.keywords)
        with RRIndex(rr_path) as index:
            offline = index.query(query)
        online = wris_query(
            model,
            profiles,
            query,
            policy=ThetaPolicy(epsilon=1.0, K=50, cap=400),
            rng=4,
        )
        off = estimate_spread(
            model, offline.seeds, n_samples=300, weights=weights, rng=5
        ).mean
        on = estimate_spread(
            model, online.seeds, n_samples=300, weights=weights, rng=5
        ).mean
        assert off >= 0.8 * on

    def test_index_query_io_is_bounded(self, index_paths):
        """The real-time claim: query touches a bounded number of reads."""
        rr_path, irr_path = index_paths
        query = KBTIMQuery(["music", "book"], 10)
        with RRIndex(rr_path) as rr:
            a = rr.query(query)
        assert a.stats.io.read_calls == 4  # 2 per keyword
        with IRRIndex(irr_path) as irr:
            b = irr.query(query)
        assert b.stats.io.read_calls < 100

    def test_lt_model_through_wris(self, world):
        graph, _t, profiles, _ic = world
        lt = LinearThreshold(graph, weight_rng=6)
        answer = wris_query(
            lt,
            profiles,
            KBTIMQuery(["music"], 5),
            policy=ThetaPolicy(epsilon=1.0, K=50, cap=300),
            rng=7,
        )
        assert len(answer.seeds) == 5

    def test_lt_index_pipeline(self, world, tmp_path):
        """Section 6.6: the index machinery is model-agnostic."""
        graph, _t, profiles, _ic = world
        lt = LinearThreshold(graph, weight_rng=8)
        policy = ThetaPolicy(epsilon=1.0, K=20, cap=150)
        builder = RRIndexBuilder(lt, profiles, policy=policy, rng=9)
        path = str(tmp_path / "lt.rr")
        builder.build(path, keywords=["music", "book"])
        with RRIndex(path) as index:
            answer = index.query(KBTIMQuery(["music", "book"], 5))
        assert len(answer.seeds) == 5
