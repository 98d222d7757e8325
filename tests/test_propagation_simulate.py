"""Tests for Monte-Carlo spread estimation (repro.propagation.simulate)."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.propagation.exact import exact_spread
from repro.propagation.ic import IndependentCascade
from repro.propagation.simulate import estimate_spread


@pytest.fixture()
def chain_model():
    g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], probs=[0.5, 0.5, 0.5])
    return IndependentCascade(g)


class TestEstimateSpread:
    def test_converges_to_exact(self, chain_model):
        estimate = estimate_spread(chain_model, [0], n_samples=4000, rng=1)
        truth = exact_spread(chain_model.graph, [0])
        assert estimate.mean == pytest.approx(truth, abs=0.06)

    def test_weighted_estimate_eqn2(self, chain_model):
        weights = np.array([0.0, 1.0, 2.0, 4.0])
        estimate = estimate_spread(
            chain_model, [0], n_samples=4000, weights=weights, rng=2
        )
        truth = exact_spread(chain_model.graph, [0], weights)
        assert estimate.mean == pytest.approx(truth, abs=0.1)

    def test_stderr_shrinks_with_samples(self, chain_model):
        small = estimate_spread(chain_model, [0], n_samples=100, rng=3)
        large = estimate_spread(chain_model, [0], n_samples=3000, rng=3)
        assert large.stderr < small.stderr

    def test_confidence_interval_brackets_truth(self, chain_model):
        estimate = estimate_spread(chain_model, [0], n_samples=3000, rng=4)
        low = estimate.mean - 3.5 * estimate.stderr
        high = estimate.mean + 3.5 * estimate.stderr
        truth = exact_spread(chain_model.graph, [0])
        assert low <= truth <= high

    def test_deterministic_graph_zero_variance(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], probs=[1.0, 1.0])
        estimate = estimate_spread(IndependentCascade(g), [0], n_samples=50, rng=5)
        assert estimate.mean == 3.0
        assert estimate.stderr == 0.0

    def test_single_sample_infinite_stderr(self, chain_model):
        estimate = estimate_spread(chain_model, [0], n_samples=1, rng=6)
        assert estimate.stderr == float("inf")

    def test_weights_shape_validated(self, chain_model):
        with pytest.raises(ValueError):
            estimate_spread(chain_model, [0], n_samples=10, weights=np.ones(9))

    def test_n_samples_validated(self, chain_model):
        with pytest.raises(ValueError):
            estimate_spread(chain_model, [0], n_samples=0)

    def test_reproducible_with_seed(self, chain_model):
        a = estimate_spread(chain_model, [0], n_samples=200, rng=7)
        b = estimate_spread(chain_model, [0], n_samples=200, rng=7)
        assert a.mean == b.mean
