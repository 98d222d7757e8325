"""Tests for log-domain combinatorics (repro.utils.logmath)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.logmath import log_binomial


class TestLogBinomial:
    def test_small_exact_values(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10))
        assert log_binomial(10, 3) == pytest.approx(math.log(120))

    def test_edge_cases_zero(self):
        assert log_binomial(7, 0) == 0.0
        assert log_binomial(7, 7) == 0.0
        assert log_binomial(0, 0) == 0.0

    def test_symmetry(self):
        assert log_binomial(40, 7) == pytest.approx(log_binomial(40, 33))

    def test_large_values_do_not_overflow(self):
        # C(40e6, 50) overflows floats badly; the log is ~727.
        value = log_binomial(40_000_000, 50)
        assert 700 < value < 750

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            log_binomial(3, 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_binomial(-1, 0)

    @given(st.integers(1, 200), st.data())
    def test_matches_math_comb(self, n, data):
        k = data.draw(st.integers(0, n))
        assert log_binomial(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-9
        )

    @given(st.integers(2, 500))
    def test_monotone_up_to_half(self, n):
        ks = range(0, n // 2)
        values = [log_binomial(n, k) for k in ks]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
