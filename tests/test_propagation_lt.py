"""Tests for the Linear Threshold model (repro.propagation.lt)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.propagation.lt import LinearThreshold

from oracles import lt_rr_set_reference


def two_in_graph() -> DiGraph:
    """Vertex 2 has two in-edges with explicit LT weights 0.3 / 0.5."""
    return DiGraph.from_edges(3, [(0, 2), (1, 2)])


class TestWeights:
    def test_default_weights_normalised(self, small_twitter):
        model = LinearThreshold(small_twitter, weight_rng=5)
        for v in range(0, small_twitter.n, 37):
            start, stop = small_twitter.in_ptr[v], small_twitter.in_ptr[v + 1]
            if stop > start:
                assert model.weights[start:stop].sum() == pytest.approx(1.0)

    def test_default_weights_deterministic(self, small_twitter):
        a = LinearThreshold(small_twitter, weight_rng=5)
        b = LinearThreshold(small_twitter, weight_rng=5)
        assert np.allclose(a.weights, b.weights)

    def test_explicit_weights_validated_shape(self):
        g = two_in_graph()
        with pytest.raises(GraphError):
            LinearThreshold(g, weights=np.array([0.5]))

    def test_explicit_weights_sum_le_one_enforced(self):
        g = two_in_graph()
        with pytest.raises(GraphError, match="sum"):
            LinearThreshold(g, weights=np.array([0.8, 0.7]))

    def test_negative_weights_rejected(self):
        g = two_in_graph()
        with pytest.raises(GraphError):
            LinearThreshold(g, weights=np.array([-0.1, 0.5]))

    def test_sub_stochastic_weights_allowed(self):
        g = two_in_graph()
        model = LinearThreshold(g, weights=np.array([0.3, 0.5]))
        assert model.name == "LT"


class TestSampleRRSets:
    def test_at_most_one_in_edge_per_step(self):
        # With two in-edges into 2, the reverse walk picks 0 or 1, never both.
        g = two_in_graph()
        model = LinearThreshold(g, weights=np.array([0.3, 0.5]))
        gen = np.random.default_rng(3)
        for rr in model.sample_rr_sets(np.full(50, 2), gen):
            assert not {0, 1} <= set(rr.tolist())

    @pytest.mark.parametrize("sampler", ["batched", "reference"])
    def test_walk_probabilities(self, sampler):
        """P[u ∈ RR(2)] equals the LT live-edge pick probability — for the
        model's sampler and for the scalar reference walk."""
        g = two_in_graph()
        model = LinearThreshold(g, weights=np.array([0.3, 0.5]))
        gen = np.random.default_rng(4)
        n = 5000
        if sampler == "batched":
            rr_sets = model.sample_rr_sets(np.full(n, 2), gen)
        else:
            rr_sets = [lt_rr_set_reference(g, model.weights, 2, gen) for _ in range(n)]
        hits = np.zeros(3)
        for rr in rr_sets:
            hits[rr] += 1
        assert hits[0] / n == pytest.approx(0.3, abs=0.02)
        assert hits[1] / n == pytest.approx(0.5, abs=0.02)
        assert hits[2] == n  # root always present

    def test_cycle_terminates(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        model = LinearThreshold(g)  # full-weight cycles: walk must stop on revisit
        rr = model.sample_rr_sets([0], rng=5)[0]
        assert len(rr) <= 3

    def test_contains_root(self, small_twitter):
        model = LinearThreshold(small_twitter, weight_rng=1)
        assert 17 in model.sample_rr_sets([17], rng=6)[0]


class TestSimulate:
    def test_seeds_active(self, small_twitter):
        model = LinearThreshold(small_twitter, weight_rng=1)
        activated = model.simulate([2, 4], rng=7)
        assert {2, 4} <= set(activated.tolist())

    def test_forward_matches_reverse_spread(self):
        """LT forward MC and reverse-walk MC must estimate the same spread."""
        g = DiGraph.from_edges(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)]
        )
        model = LinearThreshold(g, weight_rng=8)
        gen = np.random.default_rng(9)
        n = 4000
        forward = sum(len(model.simulate([0], gen)) for _ in range(n)) / n
        # Reverse estimate of E[I({0})]: Σ_v P[0 ∈ RR(v)].
        reverse = 0.0
        for v in range(g.n):
            rr_sets = model.sample_rr_sets(np.full(n // 4, v), gen)
            hits = sum(1 for rr in rr_sets if 0 in rr)
            reverse += hits / (n // 4)
        assert forward == pytest.approx(reverse, abs=0.1)

    def test_deterministic_single_in_edge_graph(self):
        # A chain with in-degree 1 everywhere: weights are all 1, so LT
        # becomes deterministic reachability.
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        model = LinearThreshold(g)
        assert model.simulate([0], rng=10).tolist() == [0, 1, 2, 3]
