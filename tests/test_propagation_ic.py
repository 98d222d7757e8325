"""Tests for the Independent Cascade model (repro.propagation.ic).

The crucial property: reverse sampling and forward simulation are two
views of the same live-edge distribution, so RR-based estimates must agree
with exact enumeration on tiny graphs.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.propagation.exact import exact_activation_probabilities, exact_spread
from repro.propagation.ic import IndependentCascade

from oracles import ic_rr_set_reference


def one_rr_set(model, root, rng):
    """The RR set of one root, drawn through the batched sampler."""
    return model.sample_rr_sets([root], rng)[0]


class TestSampleRRSets:
    def test_contains_root(self, small_twitter, rng):
        model = IndependentCascade(small_twitter)
        roots = [0, 5, 100]
        for root, rr in zip(roots, model.sample_rr_sets(roots, rng)):
            assert root in rr

    def test_sorted_unique(self, small_twitter, rng):
        model = IndependentCascade(small_twitter)
        rr = one_rr_set(model, 7, rng)
        assert np.all(np.diff(rr) > 0)

    def test_root_out_of_range(self, small_twitter):
        model = IndependentCascade(small_twitter)
        with pytest.raises(GraphError):
            model.sample_rr_sets([small_twitter.n])

    def test_deterministic_edges_pull_full_ancestry(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], probs=[1, 1, 1])
        model = IndependentCascade(g)
        assert one_rr_set(model, 3, rng=1).tolist() == [0, 1, 2, 3]

    def test_zero_probability_edges_blocked(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], probs=[0.0, 0.0])
        model = IndependentCascade(g)
        assert one_rr_set(model, 2, rng=1).tolist() == [2]

    def test_isolated_vertex(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        model = IndependentCascade(g)
        assert one_rr_set(model, 2, rng=1).tolist() == [2]

    @pytest.mark.parametrize("sampler", ["batched", "reference"])
    def test_rr_membership_probability_matches_exact(self, sampler):
        """P[u ∈ RR(v)] = p({u} ↦ v), checked against enumeration — for
        the model's sampler and for the scalar reference the property
        tests compare it with."""
        g = DiGraph.from_edges(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)], probs=[0.6, 0.5, 0.3, 0.7]
        )
        model = IndependentCascade(g)
        gen = np.random.default_rng(99)
        n_samples = 4000
        root = 3
        if sampler == "batched":
            rr_sets = model.sample_rr_sets(np.full(n_samples, root), gen)
        else:
            rr_sets = [ic_rr_set_reference(g, root, gen) for _ in range(n_samples)]
        hits = np.zeros(g.n)
        for rr in rr_sets:
            hits[rr] += 1
        freq = hits / n_samples
        for u in range(g.n):
            truth = exact_activation_probabilities(g, [u])[root]
            assert freq[u] == pytest.approx(truth, abs=0.03), f"u={u}"


class TestSimulate:
    def test_seeds_always_active(self, small_twitter, rng):
        model = IndependentCascade(small_twitter)
        activated = model.simulate([3, 9], rng)
        assert {3, 9} <= set(activated.tolist())

    def test_sorted_unique_output(self, small_twitter, rng):
        model = IndependentCascade(small_twitter)
        activated = model.simulate([0, 1, 2], rng)
        assert np.all(np.diff(activated) > 0)

    def test_no_edges_only_seeds(self):
        g = DiGraph.from_edges(5, [])
        model = IndependentCascade(g)
        assert model.simulate([1, 4], rng=1).tolist() == [1, 4]

    def test_duplicate_seed_rejected(self, small_twitter):
        model = IndependentCascade(small_twitter)
        with pytest.raises(ValueError):
            model.simulate([1, 1])

    def test_forward_matches_exact_spread(self):
        g = DiGraph.from_edges(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)], probs=[0.6, 0.5, 0.3, 0.7]
        )
        model = IndependentCascade(g)
        gen = np.random.default_rng(7)
        n_samples = 4000
        total = sum(len(model.simulate([0], gen)) for _ in range(n_samples))
        truth = exact_spread(g, [0])
        assert total / n_samples == pytest.approx(truth, abs=0.05)


class TestForwardReverseAgreement:
    """Deferred-decision equivalence on the Figure 1 graph."""

    def test_rr_root_frequency_equals_forward_probability(self, fig1_graph, fig1_ids):
        model = IndependentCascade(fig1_graph)
        gen = np.random.default_rng(11)
        seeds = [fig1_ids["e"], fig1_ids["g"]]
        truth = exact_activation_probabilities(fig1_graph, seeds)
        n_samples = 3000
        hit = 0
        root = fig1_ids["c"]
        for rr in model.sample_rr_sets(np.full(n_samples, root), gen):
            if set(seeds) & set(rr.tolist()):
                hit += 1
        assert hit / n_samples == pytest.approx(truth[root], abs=0.03)
