"""End-to-end checks of the paper's approximation guarantees.

Theorem 2 promises a ``(1 - 1/e - ε)``-approximate solution with
probability ``1 - 1/|V|``.  On the Figure 1 fixture we can compute exact
OPT by brute force and therefore *evaluate the guarantee itself* — θ from
the real formula (no caps), seeds from the real pipeline, quality against
exact enumeration.  Repeated over independent runs, failures must stay
rare (we demand zero over 20 runs at these θ values, where the bound is
extremely conservative).
"""

import numpy as np
import pytest

from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy, theta_wris
from repro.core.wris import wris_query
from repro.datasets.paper_example import paper_example_graph, paper_example_profiles
from repro.propagation.exact import exact_optimal_seed_set, exact_spread
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold


@pytest.fixture(scope="module")
def fig1():
    graph = paper_example_graph()
    profiles = paper_example_profiles()
    return graph, profiles, IndependentCascade(graph)


class TestTheorem2Guarantee:
    """(1 - 1/e - ε) quality at the bound-prescribed θ, no caps."""

    @pytest.mark.parametrize("keywords,k", [(("music",), 2), (("music", "book"), 2)])
    def test_guarantee_holds_across_runs(self, fig1, keywords, k):
        graph, profiles, model = fig1
        epsilon = 0.3
        weights = profiles.phi_vector(list(keywords))
        _opt_seeds, opt = exact_optimal_seed_set(graph, k, weights)
        phi_q = profiles.phi_q(list(keywords))
        theta = theta_wris(graph.n, k, epsilon, phi_q, opt)
        target = (1 - 1 / np.e - epsilon) * opt

        for run in range(20):
            answer = wris_query(
                model,
                profiles,
                KBTIMQuery(keywords, k),
                theta_override=theta,
                rng=1000 + run,
            )
            achieved = exact_spread(graph, sorted(answer.seeds), weights)
            assert achieved >= target, (
                f"run {run}: achieved {achieved:.4f} < "
                f"(1-1/e-eps)*OPT = {target:.4f} at theta={theta}"
            )

    def test_theta_formula_at_fixture_scale_is_modest(self, fig1):
        # Sanity: the Figure 1 bound stays small enough that the runs
        # above truly exercise the prescribed θ, not a cap.
        graph, profiles, _model = fig1
        phi_q = profiles.phi_q(["music"])
        _seeds, opt = exact_optimal_seed_set(
            graph, 2, profiles.phi_vector(["music"])
        )
        theta = theta_wris(graph.n, 2, 0.3, phi_q, opt)
        assert 100 <= theta <= 100_000


class TestCrossModelIndexes:
    """Section 6.6: the index machinery is propagation-model-agnostic."""

    @pytest.fixture(scope="class")
    def lt_world(self):
        from repro.graph.generators import twitter_like
        from repro.profiles.generators import zipf_profiles
        from repro.profiles.topics import TopicSpace

        graph = twitter_like(200, avg_degree=8, rng=91)
        profiles = zipf_profiles(graph.n, TopicSpace.default(5), rng=92)
        return graph, profiles, LinearThreshold(graph, weight_rng=93)

    def test_theorem3_under_lt(self, lt_world, tmp_path):
        _graph, profiles, model = lt_world
        policy = ThetaPolicy(epsilon=1.0, K=20, cap=120)
        builder = RRIndexBuilder(model, profiles, policy=policy, rng=94)
        tables = builder.sample()
        rr_path = str(tmp_path / "lt.rr")
        irr_path = str(tmp_path / "lt.irr")
        builder.build(rr_path, tables=tables)
        IRRIndexBuilder(model, profiles, policy=policy, delta=12, rng=94).build(
            irr_path, tables=tables
        )
        query = KBTIMQuery(("music", "book"), 6)
        with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
            a = rr.query(query)
            b = irr.query(query)
        assert a.seeds == b.seeds
        assert a.marginal_coverages == b.marginal_coverages

    def test_lt_rr_sets_are_paths(self, lt_world):
        # LT's live-edge worlds pick at most one in-edge per vertex, so an
        # RR set is a simple backward path: size <= path length bound.
        graph, _profiles, model = lt_world
        rng = np.random.default_rng(95)
        for rr in model.sample_rr_sets(range(0, graph.n, 23), rng):
            assert len(rr) <= graph.n
            # Each non-root vertex in the set must reach the root through
            # the chain, so the set size can never exceed the walk length
            # (trivially true) — and the walk visits distinct vertices.
            assert len(set(rr.tolist())) == len(rr)
