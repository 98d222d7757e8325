"""Tests for fixed-width bit packing (repro.storage.bitpack)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bitpack import bits_needed, pack_fixed_width, unpack_width_group


def unpack(packed, width, count):
    """One block through the group unpacker the record decoder drives."""
    return unpack_width_group(
        np.frombuffer(packed, dtype=np.uint8),
        np.zeros(1, dtype=np.int64),
        np.array([count], dtype=np.int64),
        width,
    )


class TestBitsNeeded:
    def test_known_values(self):
        assert bits_needed(np.array([0])) == 1
        assert bits_needed(np.array([1])) == 1
        assert bits_needed(np.array([2])) == 2
        assert bits_needed(np.array([255])) == 8
        assert bits_needed(np.array([256])) == 9

    def test_empty(self):
        assert bits_needed(np.array([], dtype=np.uint64)) == 1

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            bits_needed(np.array([-1]))


class TestPackUnpack:
    def test_roundtrip_simple(self):
        values = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        packed = pack_fixed_width(values, 3)
        assert np.array_equal(unpack(packed, 3, 5), values)

    def test_packed_size(self):
        values = np.arange(8, dtype=np.uint64)
        packed = pack_fixed_width(values, 3)
        assert len(packed) == 3  # 24 bits

    def test_width_one(self):
        values = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint64)
        packed = pack_fixed_width(values, 1)
        assert len(packed) == 1
        assert np.array_equal(unpack(packed, 1, 8), values)

    def test_width_64(self):
        values = np.array([2**63, 2**64 - 1, 0], dtype=np.uint64)
        packed = pack_fixed_width(values, 64)
        assert np.array_equal(unpack(packed, 64, 3), values)

    def test_value_overflow_rejected(self):
        with pytest.raises(StorageError, match="does not fit"):
            pack_fixed_width(np.array([8], dtype=np.uint64), 3)

    def test_empty_array(self):
        assert pack_fixed_width(np.array([], dtype=np.uint64), 5) == b""
        assert len(unpack(b"", 5, 0)) == 0

    def test_truncated_payload_rejected(self):
        """Four 16-bit values need 8 bytes; one is there.  The group
        unpacker trusts its byte ranges — the guard is the block header
        walk's, which never queues a block whose payload is cut."""
        from repro.storage.compression import Codec, decompress_ids_batch

        blob = bytes([Codec.PFOR.value, 4, 16, 0]) + b"\x01"
        with pytest.raises(StorageError, match="truncated PFoR payload"):
            decompress_ids_batch(blob, 1)

    def test_many_blocks_one_call(self):
        """Blocks of one width, byte-aligned back to back, unpack together."""
        blocks = [np.arange(5), np.arange(7, 10), np.array([31])]
        packed = b"".join(pack_fixed_width(b.astype(np.uint64), 5) for b in blocks)
        sizes = np.array([len(b) for b in blocks])
        starts = np.concatenate(([0], np.cumsum((sizes * 5 + 7) // 8)[:-1]))
        out = unpack_width_group(np.frombuffer(packed, np.uint8), starts, sizes, 5)
        assert out.tolist() == np.concatenate(blocks).tolist()

    def test_bad_width_rejected(self):
        for width in (0, 65):
            with pytest.raises(StorageError, match="width must be in"):
                pack_fixed_width(np.array([1], dtype=np.uint64), width)
        with pytest.raises(StorageError):
            unpack(b"", 65, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.lists(st.integers(0, 2**40 - 1), max_size=300),
    )
    def test_roundtrip_property(self, extra_bits, values):
        arr = np.asarray(values, dtype=np.uint64)
        width = max(bits_needed(arr), 1)
        width = min(width + extra_bits % 3, 64)  # sometimes over-wide
        packed = pack_fixed_width(arr, width)
        assert np.array_equal(unpack(packed, width, len(arr)), arr)

    @given(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=64))
    def test_minimal_width_suffices(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        width = bits_needed(arr)
        packed = pack_fixed_width(arr, width)
        assert np.array_equal(unpack(packed, width, len(arr)), arr)
