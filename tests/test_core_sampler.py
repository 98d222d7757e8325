"""Tests for the root samplers (repro.core.sampler) and the RR sets the
models draw from their roots — incl. Lemma 1."""

import numpy as np
import pytest

from repro.core.sampler import (
    mean_rr_set_size,
    sample_uniform_roots,
    sample_weighted_roots,
)
from repro.propagation.exact import exact_spread
from repro.propagation.ic import IndependentCascade
from repro.utils.rrsets import FlatRRSets


class TestUniformRoots:
    def test_range_and_count(self):
        roots = sample_uniform_roots(50, 500, rng=1)
        assert len(roots) == 500
        assert roots.min() >= 0 and roots.max() < 50

    def test_roughly_uniform(self):
        roots = sample_uniform_roots(10, 20_000, rng=2)
        counts = np.bincount(roots, minlength=10)
        assert counts.min() > 1500 and counts.max() < 2500

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_uniform_roots(0, 10)
        with pytest.raises(ValueError):
            sample_uniform_roots(10, 0)


class TestWeightedRoots:
    def test_respects_distribution(self):
        users = np.array([3, 7, 9])
        probs = np.array([0.7, 0.2, 0.1])
        roots = sample_weighted_roots(users, probs, 30_000, rng=3)
        freq = {u: np.mean(roots == u) for u in users}
        assert freq[3] == pytest.approx(0.7, abs=0.02)
        assert freq[7] == pytest.approx(0.2, abs=0.02)
        assert freq[9] == pytest.approx(0.1, abs=0.02)

    def test_only_listed_users(self):
        users = np.array([5, 6])
        roots = sample_weighted_roots(users, np.array([0.5, 0.5]), 200, rng=4)
        assert set(roots.tolist()) <= {5, 6}

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sample_weighted_roots(np.array([1]), np.array([0.5]), 10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sample_weighted_roots(np.array([1, 2]), np.array([1.0]), 10)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_weighted_roots(np.array([]), np.array([]), 10)


class TestSampleRRSets:
    def test_one_per_root(self, small_twitter, rng):
        model = IndependentCascade(small_twitter)
        roots = [0, 5, 5, 9]
        sets = model.sample_rr_sets(roots, rng)
        assert len(sets) == 4
        for root, rr in zip(roots, sets):
            assert root in rr

    def test_mean_size(self):
        sets = [np.array([1]), np.array([1, 2, 3])]
        assert mean_rr_set_size(FlatRRSets.from_sets(sets)) == 2.0
        assert mean_rr_set_size(FlatRRSets.from_sets([])) == 0.0


class TestLemma1Unbiasedness:
    """E[F_θ(S)/θ]·φ_Q = E[I^Q(S)] — the estimator at the paper's heart."""

    def test_weighted_estimator_matches_exact_spread(self, fig1_graph, fig1_ids):
        model = IndependentCascade(fig1_graph)
        gen = np.random.default_rng(5)
        # Arbitrary positive weights over users (a φ(·, Q) surrogate).
        weights = np.array([0.5, 0.6, 0.5, 0.3, 0.5, 0.2, 0.4])
        phi_q = weights.sum()
        users = np.arange(fig1_graph.n)
        probs = weights / phi_q

        seeds = {fig1_ids["e"], fig1_ids["g"]}
        theta = 20_000
        roots = sample_weighted_roots(users, probs, theta, gen)
        covered = 0
        for rr in model.sample_rr_sets(roots, gen):
            if seeds & set(rr.tolist()):
                covered += 1
        estimate = covered / theta * phi_q
        truth = exact_spread(fig1_graph, sorted(seeds), weights)
        assert estimate == pytest.approx(truth, rel=0.05)

    def test_uniform_estimator_matches_unweighted_spread(self, fig1_graph, fig1_ids):
        """The RIS special case: uniform roots estimate E[I(S)]·|V|^-1."""
        model = IndependentCascade(fig1_graph)
        gen = np.random.default_rng(6)
        seeds = {fig1_ids["e"], fig1_ids["g"]}
        theta = 20_000
        roots = sample_uniform_roots(fig1_graph.n, theta, gen)
        covered = sum(
            1
            for rr in model.sample_rr_sets(roots, gen)
            if seeds & set(rr.tolist())
        )
        estimate = covered / theta * fig1_graph.n
        assert estimate == pytest.approx(4.8125, rel=0.05)
