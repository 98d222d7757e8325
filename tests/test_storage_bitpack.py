"""Tests for variable-width bit packing (repro.storage.bitpack)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import bitpack
from repro.storage.bitpack import bit_lengths, pack_runs, unpack_runs


def pack(values, width):
    """One run through the packer."""
    return pack_runs(np.asarray(values, dtype=np.uint64), [len(values)], [width])


def unpack(packed, width, count, bit_offset=0):
    """One run of ``count`` ``width``-bit values at ``bit_offset``, as the
    decoder reads it out of a one-record session."""
    return unpack_runs(
        [packed],
        np.array([bit_offset], dtype=np.int64),
        np.array([count], dtype=np.int64),
        np.array([width], dtype=np.int64),
    )


class TestBitsNeeded:
    def test_known_values(self):
        values = np.array([0, 1, 2, 255, 256, 2**63, 2**64 - 1], dtype=np.uint64)
        assert bit_lengths(values).tolist() == [0, 1, 2, 8, 9, 64, 64]
        # Exactly int.bit_length around every power of two.
        edges = [v for b in range(64) for v in ((1 << b) - 1, 1 << b, (1 << b) + 1)]
        assert bit_lengths(np.array(edges, dtype=np.uint64)).tolist() == [
            v.bit_length() for v in edges
        ]

    def test_empty(self):
        assert len(bit_lengths(np.array([], dtype=np.uint64))) == 0


class TestPackUnpack:
    def test_roundtrip_simple(self):
        values = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        packed = pack(values, 3)
        assert np.array_equal(unpack(packed, 3, 5), values)

    def test_packed_size(self):
        values = np.arange(8, dtype=np.uint64)
        packed = pack(values, 3)
        assert len(packed) == 3  # 24 bits

    def test_width_one(self):
        values = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint64)
        packed = pack(values, 1)
        assert len(packed) == 1
        assert np.array_equal(unpack(packed, 1, 8), values)

    def test_width_64(self):
        values = np.array([2**63, 2**64 - 1, 0], dtype=np.uint64)
        packed = pack(values, 64)
        assert np.array_equal(unpack(packed, 64, 3), values)

    def test_width_zero_costs_nothing(self):
        zeros = np.zeros(5, dtype=np.uint64)
        assert pack(zeros, 0) == b""
        assert unpack(b"", 0, 5).tolist() == [0] * 5

    def test_value_overflow_rejected(self):
        with pytest.raises(StorageError, match="does not fit"):
            pack(np.array([8], dtype=np.uint64), 3)

    def test_empty_array(self):
        assert pack(np.array([], dtype=np.uint64), 5) == b""
        assert len(unpack(b"", 5, 0)) == 0

    def test_truncated_payload_rejected(self):
        """Four 16-bit values need 8 bytes; one is there.  The unpacker
        trusts its offsets — the guard is the stream reader's, which
        never queues a column whose payload is cut."""
        from repro.storage.compression import Codec, StreamDecoder

        blob = bytes([16, 0]) + b"\x01"  # widths column, no exceptions, payload
        with pytest.raises(StorageError, match="truncated PFoR payload"):
            StreamDecoder(blob).read(Codec.PFOR.value, 4, 0)

    def test_many_blocks_one_call(self):
        """Runs of different widths at arbitrary bit offsets — what one
        record's streams are — unpack together."""
        runs = [(np.arange(5), 5), (np.arange(7, 10), 4), (np.array([31]), 64)]
        # Five stray bits first, so no run starts byte-aligned.
        stream = pack_runs(
            np.concatenate([[31]] + [v for v, _ in runs]).astype(np.uint64),
            [1] + [len(v) for v, _ in runs],
            [5] + [w for _, w in runs],
        )
        starts = np.cumsum([5] + [len(v) * w for v, w in runs])[:-1]
        out = unpack_runs(
            [stream],
            starts,
            np.array([len(v) for v, _ in runs]),
            np.array([w for _, w in runs]),
        )
        assert out.tolist() == np.concatenate([v for v, _ in runs]).tolist()

    def test_bad_width_rejected(self):
        for width in (-1, 65):
            with pytest.raises(StorageError, match="width must be in"):
                pack(np.array([1], dtype=np.uint64), width)

    def test_slices_are_invisible(self, monkeypatch):
        """Both directions work in bounded slices; the cut shows nowhere."""
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 9, size=300)
        widths = rng.integers(0, 65, size=300)
        values = rng.integers(0, 2**63, size=int(counts.sum())).astype(np.uint64)
        values &= bitpack.MASKS[widths.repeat(counts)]
        whole = pack_runs(values, counts, widths)
        monkeypatch.setattr(bitpack, "_PACK_SLICE", 7)
        monkeypatch.setattr(bitpack, "_UNPACK_SLICE", 13)
        assert pack_runs(values, counts, widths) == whole
        starts = np.cumsum(counts * widths) - counts * widths
        out = unpack_runs([whole], starts, counts, widths)
        assert np.array_equal(out, values)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.lists(st.integers(0, 2**40 - 1), max_size=300),
        st.integers(0, 23),
    )
    def test_roundtrip_property(self, extra_bits, values, lead_bits):
        arr = np.asarray(values, dtype=np.uint64)
        width = int(bit_lengths(arr).max()) if len(arr) else 1
        width = min(width + extra_bits % 3, 64)  # sometimes over-wide
        # Behind `lead_bits` one-bits: a run need not start byte-aligned.
        lead = np.ones(lead_bits, dtype=np.uint64)
        packed = pack_runs(
            np.concatenate((lead, arr)), [lead_bits, len(arr)], [1, width]
        )
        assert np.array_equal(unpack(packed, width, len(arr), lead_bits), arr)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_minimal_width_suffices(self, values):
        """Every value a run of its own, in exactly its bit length."""
        arr = np.asarray(values, dtype=np.uint64)
        widths = bit_lengths(arr)
        ones = np.ones(len(arr), dtype=np.int64)
        packed = pack_runs(arr, ones, widths)
        assert len(packed) == (int(widths.sum()) + 7) // 8
        starts = np.cumsum(widths) - widths
        out = unpack_runs([packed], starts, ones, widths)
        assert np.array_equal(out, arr)
