"""Tests for synthetic graph generators (repro.graph.generators)."""

import numpy as np
import pytest

from oracles import news_like_edges_reference, twitter_like_edges_reference
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    erdos_renyi_digraph,
    news_like,
    ring_digraph,
    twitter_like,
)
from repro.graph.stats import degree_tail_exponent, in_degree_histogram


class TestErdosRenyi:
    def test_determinism(self):
        a = erdos_renyi_digraph(30, 0.1, rng=5)
        b = erdos_renyi_digraph(30, 0.1, rng=5)
        assert a == b

    def test_p_zero_empty(self):
        assert erdos_renyi_digraph(10, 0.0, rng=1).m == 0

    def test_p_one_complete(self):
        g = erdos_renyi_digraph(6, 1.0, rng=1)
        assert g.m == 6 * 5

    def test_edge_count_near_expectation(self):
        n, p = 100, 0.05
        g = erdos_renyi_digraph(n, p, rng=2)
        expected = p * n * (n - 1)
        assert abs(g.m - expected) < 4 * np.sqrt(expected)


class TestTwitterLike:
    def test_determinism(self):
        assert twitter_like(100, 5, rng=3) == twitter_like(100, 5, rng=3)

    def test_size_and_connectivity(self):
        g = twitter_like(200, avg_degree=6, rng=4)
        assert g.n == 200
        assert g.m > 0

    def test_average_degree_roughly_requested(self):
        g = twitter_like(400, avg_degree=10, rng=5)
        # Follow-back pass adds ~30%; accept a generous band.
        assert 6 <= g.average_degree() <= 16

    def test_heavy_tail_present(self):
        g = twitter_like(800, avg_degree=10, rng=6)
        degrees = g.in_degrees()
        # A hub should dwarf the median in a preferential-attachment graph.
        assert degrees.max() >= 5 * max(1, int(np.median(degrees)))

    def test_requires_two_vertices(self):
        with pytest.raises(GraphError):
            twitter_like(1, 2, rng=1)


class TestNewsLike:
    def test_determinism(self):
        assert news_like(100, 3, rng=3) == news_like(100, 3, rng=3)

    def test_sparse_average_degree(self):
        g = news_like(500, avg_degree=3.0, rng=7)
        assert 1.5 <= g.average_degree() <= 4.5

    def test_light_tail_versus_twitter(self):
        news = news_like(800, avg_degree=4, rng=8)
        twitter = twitter_like(800, avg_degree=12, rng=8)
        # Normalised hub size: twitter hubs hold a much larger share.
        news_share = news.in_degrees().max() / max(news.m, 1)
        twitter_share = twitter.in_degrees().max() / max(twitter.m, 1)
        assert twitter_share > news_share

    def test_requires_two_vertices(self):
        with pytest.raises(GraphError):
            news_like(1, 2, rng=1)


class TestRing:
    def test_structure(self):
        g = ring_digraph(5)
        assert g.m == 5
        for i in range(5):
            assert g.out_neighbors(i).tolist() == [(i + 1) % 5]

    def test_all_probabilities_one(self):
        g = ring_digraph(4)
        for u, v, p in g.edges():
            assert p == pytest.approx(1.0)

    def test_requires_two(self):
        with pytest.raises(GraphError):
            ring_digraph(1)


class TestFigure4Shapes:
    """The generator pair must reproduce the Figure 4 contrast."""

    def test_twitter_tail_flatter_than_news(self):
        news = news_like(1000, avg_degree=3, rng=11)
        twitter = twitter_like(1000, avg_degree=12, rng=11)
        news_slope = degree_tail_exponent(news)
        twitter_slope = degree_tail_exponent(twitter)
        # Steeper negative slope = faster fall-off. News must fall faster.
        assert news_slope < twitter_slope

    def test_histogram_mass_equals_population(self):
        g = news_like(300, 3, rng=12)
        _degrees, counts = in_degree_histogram(g)
        assert counts.sum() == g.n


class TestDrawsMatchTheChoiceReference:
    """The generators draw through ``weighted_sample`` and build their
    edges from arrays; each equals its per-draw ``Generator.choice`` and
    per-edge-append reference in ``tests/oracles.py`` exactly."""

    @pytest.mark.parametrize(
        "n,avg_degree,hub_bias,passive,seed",
        [(150, 12, 1.0, None, 71), (300, 6, 1.7, 0.2, 5), (60, 30, 0.5, 0.0, 9), (2, 1, 1.0, None, 3)],
    )
    def test_twitter_like(self, n, avg_degree, hub_bias, passive, seed):
        edges = twitter_like_edges_reference(
            n, avg_degree, hub_bias, passive, np.random.default_rng(seed)
        )
        graph = twitter_like(n, avg_degree, hub_bias=hub_bias, passive_fraction=passive, rng=seed)
        assert graph == DiGraph.from_edges(n, edges)

    @pytest.mark.parametrize(
        "n,avg_degree,skew,seed", [(200, 3.0, 0.6, 7), (80, 5.0, 1.0, 8), (5, 0.01, 0.6, 1)]
    )
    def test_news_like(self, n, avg_degree, skew, seed):
        edges = news_like_edges_reference(n, avg_degree, skew, np.random.default_rng(seed))
        assert news_like(n, avg_degree, skew=skew, rng=seed) == DiGraph.from_edges(n, edges)
