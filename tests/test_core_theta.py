"""Tests for the θ bounds (repro.core.theta) — Theorems 1/2, Lemmas 3/4."""

import math

import pytest

from repro.core.theta import (
    ThetaPolicy,
    theta_hat_w,
    theta_ris,
    theta_w,
    theta_wris,
)
from repro.utils.logmath import log_binomial


class TestFormulaValues:
    def test_theorem1_closed_form(self):
        n, k, eps, opt = 1000, 10, 0.1, 50.0
        expected = (
            (8 + 2 * eps)
            * n
            * (math.log(n) + log_binomial(n, k) + math.log(2))
            / (opt * eps**2)
        )
        assert theta_ris(n, k, eps, opt) == math.ceil(expected)

    def test_theorem2_uses_phi_q_mass(self):
        n, k, eps, opt = 1000, 10, 0.1, 50.0
        assert theta_wris(n, k, eps, float(n), opt) == theta_ris(n, k, eps, opt)
        # Halving φ_Q halves θ (up to ceiling).
        full = theta_wris(n, k, eps, 200.0, opt)
        half = theta_wris(n, k, eps, 100.0, opt)
        assert abs(half * 2 - full) <= 2

    def test_lemma3_lemma4_same_shape(self):
        n, K, eps, tf_sum = 1000, 100, 0.1, 80.0
        assert theta_hat_w(n, K, eps, tf_sum, 5.0) == theta_w(n, K, eps, tf_sum, 5.0)

    def test_lemma4_never_larger_than_lemma3(self):
        # OPT^w_K >= OPT^w_1 (monotonicity) implies θ_w <= θ̂_w.
        n, K, eps, tf_sum = 5000, 100, 0.1, 200.0
        opt1, opt_k = 2.0, 90.0
        assert theta_w(n, K, eps, tf_sum, opt_k) <= theta_hat_w(n, K, eps, tf_sum, opt1)

    def test_paper_scale_epsilon(self):
        # ε = 0.1, news-scale: θ is in the hundreds of thousands, which is
        # exactly why the paper pushes sampling offline.
        theta = theta_wris(1_400_000, 50, 0.1, 100_000.0, 50_000.0)
        assert theta > 100_000


class TestMonotonicity:
    def test_decreasing_in_epsilon(self):
        values = [theta_wris(1000, 10, eps, 100.0, 10.0) for eps in (0.1, 0.2, 0.5)]
        assert values[0] > values[1] > values[2]

    def test_decreasing_in_opt(self):
        values = [theta_wris(1000, 10, 0.1, 100.0, opt) for opt in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]

    def test_increasing_in_k(self):
        values = [theta_wris(1000, k, 0.1, 100.0, 10.0) for k in (5, 10, 20)]
        assert values[0] < values[1] < values[2]

    def test_increasing_in_mass(self):
        values = [theta_wris(1000, 10, 0.1, mass, 10.0) for mass in (10.0, 100.0)]
        assert values[0] < values[1]


class TestValidation:
    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            theta_wris(10, 11, 0.1, 5.0, 1.0)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            theta_wris(10, 2, 0.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            theta_wris(10, 2, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            theta_wris(10, 2, 0.1, 5.0, 0.0)


class TestPolicy:
    def test_cap_applies(self):
        policy = ThetaPolicy(epsilon=0.1, cap=500)
        assert policy.theta_wris(10_000, 10, 1000.0, 1.0) == 500

    def test_floor_applies(self):
        policy = ThetaPolicy(epsilon=5.0, min_theta=64)
        assert policy.theta_wris(100, 1, 1.0, 1e9) == 64

    def test_online_cap_bounds_only_the_online_bounds(self):
        policy = ThetaPolicy(epsilon=0.1, cap=500, online_cap=2000)
        assert policy.theta_ris(10_000, 10, 1.0) == 2000
        assert policy.theta_wris(10_000, 10, 1000.0, 1.0) == 2000
        assert policy.theta_w(10_000, 1000.0, 1.0) == 500
        assert policy.theta_hat_w(10_000, 1000.0, 1.0) == 500

    @pytest.mark.parametrize(
        "name, policy_args, formula, formula_args",
        [
            ("theta_ris", (500, 5, 10.0), theta_ris, (500, 5, 0.5, 10.0)),
            (
                "theta_wris",
                (500, 5, 100.0, 10.0),
                theta_wris,
                (500, 5, 0.5, 100.0, 10.0),
            ),
            ("theta_hat_w", (500, 100.0, 1.0), theta_hat_w, (500, 20, 0.5, 100.0, 1.0)),
            ("theta_w", (500, 100.0, 10.0), theta_w, (500, 20, 0.5, 100.0, 10.0)),
        ],
        ids=["theta_ris", "theta_wris", "theta_hat_w", "theta_w"],
    )
    def test_uncapped_policy_is_the_bound(
        self, name, policy_args, formula, formula_args
    ):
        """Below every cap and above the floor, the policy's θ is the
        paper's bound itself: index files built at a given (ε, K) do not
        depend on anything else the policy holds."""
        policy = ThetaPolicy(epsilon=0.5, K=20, cap=None, min_theta=1)
        assert getattr(policy, name)(*policy_args) == formula(*formula_args)

    def test_effective_k_max_clamped(self):
        policy = ThetaPolicy(K=100)
        assert policy.effective_k_max(30) == 30
        assert policy.effective_k_max(1000) == 100

    def test_keyword_bounds_usable_on_tiny_graphs(self):
        # K > n must not crash (Lemma 3/4 on fixture graphs).
        policy = ThetaPolicy(K=100, cap=1000)
        assert policy.theta_w(7, 3.0, 1.0) >= policy.min_theta

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            ThetaPolicy(epsilon=0.0)
        with pytest.raises(ValueError):
            ThetaPolicy(cap=0)
        with pytest.raises(TypeError):
            ThetaPolicy(scale=2.0)  # θ is the bound itself, or its cap


class TestLemma3Property:
    """θ̂_w >= θ·p_w — the inequality Lemma 3 exists to guarantee.

    We verify the algebraic relationship numerically: for any query mixing
    keyword w with others, θ (Theorem 2 at the query level, with
    OPT^{Q.T}_{Q.k} bounded via OPT^{w}) times p_w stays below θ̂_w
    computed from OPT^{w}_1 <= OPT^{w}_{Q.k}.
    """

    def test_numeric_inequality(self):
        n, K, eps = 2000, 100, 0.2
        idf_w = 1.3
        tf_sum_w = 120.0
        phi_w = tf_sum_w * idf_w
        phi_other = 300.0
        phi_q = phi_w + phi_other
        p_w = phi_w / phi_q
        opt_w1 = 4.0  # lower bound on OPT^{w}_1 (tf-weighted)
        for q_k in (1, 10, 50, 100):
            # OPT^{Q.T}_{Q.k} >= idf_w * OPT^{w}_{Q.k} >= idf_w * OPT^{w}_1
            opt_q = idf_w * opt_w1
            theta = theta_wris(n, q_k, eps, phi_q, opt_q)
            assert theta_hat_w(n, K, eps, tf_sum_w, opt_w1) >= theta * p_w * 0.999
