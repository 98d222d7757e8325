"""Tests for the online solvers: WRIS (Section 3.2) and RIS baseline."""

import pytest

from repro.core.query import KBTIMQuery
from repro.core.theta import ThetaPolicy
from repro.core.wris import ris_query, wris_query
from repro.datasets.paper_example import (
    paper_example_graph,
    paper_example_profiles,
)
from repro.errors import QueryError
from repro.propagation.exact import exact_optimal_seed_set, exact_spread
from repro.propagation.ic import IndependentCascade


@pytest.fixture(scope="module")
def fig1_model():
    return IndependentCascade(paper_example_graph())


@pytest.fixture(scope="module")
def fig1_store():
    return paper_example_profiles()


class TestWrisBasics:
    def test_returns_k_seeds(self, fig1_model, fig1_store):
        answer = wris_query(
            fig1_model,
            fig1_store,
            KBTIMQuery(["music"], 2),
            policy=ThetaPolicy(epsilon=0.5, K=5, cap=2000),
            rng=1,
        )
        assert len(answer.seeds) == 2
        assert len(set(answer.seeds)) == 2
        assert answer.theta > 0
        assert answer.stats.rr_sets_loaded == answer.theta

    def test_theta_override(self, fig1_model, fig1_store):
        answer = wris_query(
            fig1_model,
            fig1_store,
            KBTIMQuery(["music"], 1),
            theta_override=333,
            rng=2,
        )
        assert answer.theta == 333

    def test_rejects_k_above_K(self, fig1_model, fig1_store):
        with pytest.raises(QueryError):
            wris_query(
                fig1_model,
                fig1_store,
                KBTIMQuery(["music"], 6),
                policy=ThetaPolicy(K=5),
            )

    def test_rejects_mismatched_profiles(self, fig1_model, small_world):
        _g, _t, profiles, _m = small_world
        with pytest.raises(QueryError, match="vertices"):
            wris_query(fig1_model, profiles, KBTIMQuery(["music"], 1))

    def test_rejects_bad_theta_override(self, fig1_model, fig1_store):
        with pytest.raises(QueryError):
            wris_query(
                fig1_model,
                fig1_store,
                KBTIMQuery(["music"], 1),
                theta_override=0,
            )

    def test_deterministic_given_seed(self, fig1_model, fig1_store):
        q = KBTIMQuery(["music", "book"], 2)
        a = wris_query(fig1_model, fig1_store, q, theta_override=500, rng=3)
        b = wris_query(fig1_model, fig1_store, q, theta_override=500, rng=3)
        assert a.seeds == b.seeds
        assert a.estimated_influence == b.estimated_influence


class TestWrisQuality:
    """With enough samples WRIS must find near-optimal targeted seeds."""

    def test_matches_bruteforce_on_fig1_music(self, fig1_model, fig1_store):
        query = KBTIMQuery(["music"], 2)
        answer = wris_query(
            fig1_model, fig1_store, query, theta_override=20_000, rng=4
        )
        weights = fig1_store.phi_vector(["music"])
        achieved = exact_spread(fig1_model.graph, sorted(answer.seeds), weights)
        _opt_seeds, opt = exact_optimal_seed_set(fig1_model.graph, 2, weights)
        # Theoretical guarantee is (1 - 1/e - ε); at θ=20k on 7 nodes the
        # result should in fact be essentially optimal.
        assert achieved >= 0.95 * opt

    def test_estimator_close_to_exact_value(self, fig1_model, fig1_store):
        query = KBTIMQuery(["music"], 2)
        answer = wris_query(
            fig1_model, fig1_store, query, theta_override=20_000, rng=5
        )
        weights = fig1_store.phi_vector(["music"])
        truth = exact_spread(fig1_model.graph, sorted(answer.seeds), weights)
        assert answer.estimated_influence == pytest.approx(truth, rel=0.07)

    def test_targeting_changes_seeds(self, small_world):
        """Different keyword sets should generally steer seed choice."""
        graph, _topics, profiles, model = small_world
        policy = ThetaPolicy(epsilon=1.0, K=20, cap=600)
        a = wris_query(
            model, profiles, KBTIMQuery(["software"], 10), policy=policy, rng=6
        )
        b = wris_query(
            model, profiles, KBTIMQuery(["travel"], 10), policy=policy, rng=6
        )
        assert a.seeds != b.seeds


class TestRisBaseline:
    def test_returns_k_seeds(self, fig1_model):
        answer = ris_query(fig1_model, 2, theta_override=2000, rng=7)
        assert len(answer.seeds) == 2
        assert answer.phi_q == fig1_model.graph.n

    def test_near_optimal_untargeted(self, fig1_model):
        answer = ris_query(fig1_model, 2, theta_override=20_000, rng=8)
        achieved = exact_spread(fig1_model.graph, sorted(answer.seeds))
        assert achieved >= 0.95 * 4.8125

    def test_estimator_close_to_exact(self, fig1_model):
        answer = ris_query(fig1_model, 2, theta_override=20_000, rng=9)
        truth = exact_spread(fig1_model.graph, sorted(answer.seeds))
        assert answer.estimated_influence == pytest.approx(truth, rel=0.07)

    def test_k_above_n_rejected(self, fig1_model):
        with pytest.raises(QueryError):
            ris_query(fig1_model, 100)

    def test_bad_theta_override(self, fig1_model):
        with pytest.raises(QueryError):
            ris_query(fig1_model, 2, theta_override=-5)

    def test_ignores_keywords_entirely(self, small_world):
        """Table 8's point: RIS has no keyword input at all; one global set."""
        _graph, _topics, _profiles, model = small_world
        a = ris_query(model, 8, theta_override=800, rng=10)
        b = ris_query(model, 8, theta_override=800, rng=10)
        assert a.seeds == b.seeds


class TestSelectionResultInvariants:
    def test_marginals_sum_bounded_by_theta(self, fig1_model, fig1_store):
        answer = wris_query(
            fig1_model,
            fig1_store,
            KBTIMQuery(["music", "book"], 3),
            theta_override=1000,
            rng=11,
        )
        assert sum(answer.marginal_coverages) <= answer.theta
        assert answer.coverage == sum(answer.marginal_coverages)

    def test_influence_nonnegative_and_bounded(self, fig1_model, fig1_store):
        answer = wris_query(
            fig1_model,
            fig1_store,
            KBTIMQuery(["music"], 2),
            theta_override=1000,
            rng=12,
        )
        assert 0 <= answer.estimated_influence <= answer.phi_q
