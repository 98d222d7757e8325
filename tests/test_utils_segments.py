"""Tests for the segmented gather (repro.utils.segments)."""

import numpy as np
import pytest

from repro.utils.segments import segmented_arange, take_rows


def reference_arange(starts, lengths):
    parts = [np.arange(s, s + n) for s, n in zip(starts.tolist(), lengths.tolist())]
    return np.concatenate(parts).astype(np.int64)


class TestSegmentedArange:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_concatenated_aranges(self, dtype):
        rng = np.random.default_rng(35)
        for _ in range(50):
            size = int(rng.integers(1, 12))
            starts = rng.integers(0, 1000, size=size).astype(dtype)
            lengths = rng.integers(0, 6, size=size).astype(dtype)  # zeros included
            got = segmented_arange(starts, lengths)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference_arange(starts, lengths))

    def test_all_empty_segments(self):
        got = segmented_arange(np.array([4, 9]), np.array([0, 0]))
        assert got.size == 0


class TestTakeRows:
    def test_rows_in_requested_order(self):
        ptr = np.array([0, 2, 2, 5])
        flat = np.array([10, 11, 20, 21, 22])
        out_ptr, out = take_rows(ptr, flat, np.array([2, 1, 0]))
        assert out_ptr.tolist() == [0, 3, 3, 5]
        assert out.tolist() == [20, 21, 22, 10, 11]

    def test_no_rows(self):
        rows = np.array([], dtype=np.int64)
        out_ptr, out = take_rows(np.array([0, 1]), np.array([7]), rows)
        assert out_ptr.tolist() == [0] and out.size == 0
