"""Tests for the twitter_like periphery/aggregator model (Table 5 shape)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.core.sampler import mean_rr_set_size, sample_uniform_roots
from repro.graph.generators import twitter_like
from repro.propagation.ic import IndependentCascade


class TestPassiveFraction:
    def test_explicit_fraction_respected(self):
        g = twitter_like(400, avg_degree=10, passive_fraction=0.5, rng=1)
        zero_in = (g.in_degrees() == 0).mean()
        assert 0.3 <= zero_in <= 0.7

    def test_zero_fraction_leaves_almost_no_absorbers(self):
        g = twitter_like(400, avg_degree=10, passive_fraction=0.0, rng=2)
        # Vertex 0 (nobody to follow at arrival) plus the rare
        # Poisson-zero draws; must stay a negligible share.
        assert (g.in_degrees() == 0).sum() <= 0.02 * g.n

    def test_out_of_range_rejected(self):
        with pytest.raises((GraphError, ValueError)):
            twitter_like(100, 5, passive_fraction=0.99, rng=1)
        with pytest.raises((GraphError, ValueError)):
            twitter_like(100, 5, passive_fraction=-0.1, rng=1)

    def test_default_fraction_grows_as_degree_falls(self):
        dense = twitter_like(600, avg_degree=20, rng=3)
        sparse = twitter_like(600, avg_degree=8, rng=3)
        assert (sparse.in_degrees() == 0).mean() > (dense.in_degrees() == 0).mean()


class TestTable5Mechanism:
    """Mean RR-set size must fall along the scaled Twitter size sequence."""

    def test_rr_size_falls_with_sparser_samples(self):
        sizes = []
        for n, degree in ((800, 19.1), (1600, 9.7)):
            graph = twitter_like(n, degree, rng=4)
            model = IndependentCascade(graph)
            rng = np.random.default_rng(5)
            roots = sample_uniform_roots(n, 800, rng)
            sizes.append(mean_rr_set_size(model.sample_rr_sets(roots, rng)))
        assert sizes[1] < sizes[0]

    def test_passive_roots_give_singleton_rr_sets(self):
        graph = twitter_like(300, avg_degree=10, passive_fraction=0.4, rng=6)
        model = IndependentCascade(graph)
        passive_vertices = np.nonzero(graph.in_degrees() == 0)[0]
        assert len(passive_vertices) > 0
        roots = passive_vertices[:5]
        rr_sets = model.sample_rr_sets(roots, rng=7)
        assert [rr.tolist() for rr in rr_sets] == [[int(r)] for r in roots]


class TestAggregators:
    def test_in_degree_tail_heavy(self):
        g = twitter_like(1500, avg_degree=14, rng=8)
        degrees = np.sort(g.in_degrees())[::-1]
        # The aggregator mechanism should push the top in-degree far above
        # the non-passive median.
        positive = degrees[degrees > 0]
        assert degrees[0] >= 8 * np.median(positive)
