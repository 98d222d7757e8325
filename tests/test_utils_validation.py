"""Tests for argument validation helpers (repro.utils.validation)."""

import pytest

from repro.utils.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
    check_positive_int,
)


class TestPositiveInt:
    def test_accepts_and_returns(self):
        assert check_positive_int("k", 3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int("k", 0)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int("k", True)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int("k", 3.0)

    def test_message_names_argument(self):
        with pytest.raises(ValueError, match="budget"):
            check_positive_int("budget", -2)


class TestPositive:
    def test_accepts_int_and_coerces(self):
        value = check_positive("x", 2)
        assert value == 2.0 and isinstance(value, float)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive("x", 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", float("inf"))

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("x", "1")  # type: ignore[arg-type]


class TestNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -0.5)


class TestFraction:
    def test_open_interval_default(self):
        assert check_fraction("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_fraction("p", 0.0)
        with pytest.raises(ValueError):
            check_fraction("p", 1.0)

    def test_inclusive_bounds(self):
        assert check_fraction("p", 0.0, inclusive=True) == 0.0
        assert check_fraction("p", 1.0, inclusive=True) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction("p", 1.5, inclusive=True)
