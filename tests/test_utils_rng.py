"""Tests for RNG plumbing (repro.utils.rng)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    as_rng,
    derive_seed,
    optional_seed,
    spawn_rngs,
    weighted_sample,
)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(7).integers(0, 1 << 30, size=5)
        b = as_rng(7).integers(0, 1 << 30, size=5)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = as_rng(7).integers(0, 1 << 30, size=8)
        b = as_rng(8).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert as_rng(gen) is gen

    def test_numpy_integer_seed_accepted(self):
        a = as_rng(np.int64(5)).integers(0, 100, size=3)
        b = as_rng(5).integers(0, 100, size=3)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_rng("seed")  # type: ignore[arg-type]


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(1, 5)) == 5

    def test_children_independent_streams(self):
        children = spawn_rngs(1, 2)
        a = children[0].integers(0, 1 << 30, size=16)
        b = children[1].integers(0, 1 << 30, size=16)
        assert not np.array_equal(a, b)

    def test_deterministic_from_seed(self):
        a = [g.integers(0, 1 << 30) for g in spawn_rngs(9, 3)]
        b = [g.integers(0, 1 << 30) for g in spawn_rngs(9, 3)]
        assert a == b

    def test_zero_children(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestSeedHelpers:
    def test_derive_seed_in_range(self):
        seed = derive_seed(11)
        assert 0 <= seed < 2**63

    def test_optional_seed_preserves_none(self):
        assert optional_seed(None, 5) is None

    def test_optional_seed_deterministic(self):
        assert optional_seed(10, 3) == optional_seed(10, 3)

    def test_optional_seed_salt_changes_value(self):
        assert optional_seed(10, 3) != optional_seed(10, 4)


# A weight vector: some zeros, the rest spread over up to six orders of
# magnitude, so that a heavy entry repeats within a round and forces
# another one.
weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=40
).filter(lambda ws: any(w > 0 for w in ws))


class TestWeightedSample:
    """``weighted_sample`` is ``Generator.choice(..., replace=False, p=)``
    bit for bit: same indices, same generator state afterwards."""

    @staticmethod
    def both(weights, size, seed):
        p = np.asarray(weights, dtype=np.float64)
        p /= p.sum()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = weighted_sample(ours, p, size)
        want = theirs.choice(len(p), size=size, replace=False, p=p)
        return got, want, ours.random(), theirs.random()

    @settings(max_examples=300, deadline=None)
    @given(weight_vectors, st.data(), st.integers(0, 2**32))
    def test_equals_generator_choice(self, weights, data, seed):
        nonzero = sum(w > 0 for w in weights)
        size = data.draw(st.integers(0, nonzero), label="size")
        got, want, next_got, next_want = self.both(weights, size, seed)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert next_got == next_want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32))
    def test_skewed_weights_take_several_rounds(self, n, seed):
        # One entry holds nearly all the mass and every non-zero entry is
        # drawn, so the first round repeats and later rounds must run.
        weights = [1e6] + [1.0] * (n - 1)
        got, want, next_got, next_want = self.both(weights, n, seed)
        assert got.tolist() == want.tolist()
        assert next_got == next_want

    def test_size_equal_to_nonzero_entries(self):
        weights = [0.0, 3.0, 0.0, 1.0, 0.5]
        for seed in range(20):
            got, want, next_got, next_want = self.both(weights, 3, seed)
            assert sorted(got.tolist()) == [1, 3, 4]
            assert got.tolist() == want.tolist()
            assert next_got == next_want

    def test_caller_weights_untouched(self):
        p = np.array([0.5, 0.25, 0.25])
        weighted_sample(np.random.default_rng(0), p, 3)
        assert p.tolist() == [0.5, 0.25, 0.25]

    def test_too_few_nonzero_entries_rejected(self):
        with pytest.raises(ValueError, match="Fewer non-zero entries"):
            weighted_sample(np.random.default_rng(0), np.array([0.5, 0.0, 0.5]), 3)
