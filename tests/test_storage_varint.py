"""Tests for LEB128 varints (repro.storage.varint)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from repro.errors import StorageError
from repro.storage.varint import (
    decode_varint,
    decode_varints,
    decode_varints_block,
    encode_varints,
)


def encode_varint(value):
    """One value through the writers' ``encode_varints``, which must
    agree (bytes or error) with the scalar reference encoder."""
    try:
        expected = oracles.encode_varint(value)
    except StorageError:
        expected = None
    encoded = encode_varints([value])  # raises what the reference raised
    assert encoded == expected
    return encoded


class TestSingleValue:
    def test_known_encodings(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"
        assert encode_varint(300) == b"\xac\x02"

    def test_roundtrip_boundaries(self):
        for value in (0, 1, 127, 128, 16383, 16384, 2**32, 2**63 - 1):
            data = encode_varint(value)
            decoded, offset = decode_varint(data)
            assert decoded == value and offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(StorageError, match="non-negative"):
            encode_varint(-1)

    def test_oversized_encode_rejected(self):
        """The write path enforces the same 64-bit bound the decoders do,
        so an encoder can never produce an unreadable stream."""
        with pytest.raises(StorageError, match="64 bits"):
            encode_varint(2**64)
        with pytest.raises(StorageError, match="64 bits"):
            encode_varints([1, 2**64 + 7])
        assert encode_varint(2**64 - 1) == b"\xff" * 9 + b"\x01"

    def test_truncated_rejected(self):
        with pytest.raises(StorageError, match="truncated"):
            decode_varint(b"\x80")

    def test_oversized_rejected(self):
        with pytest.raises(StorageError, match="64 bits"):
            decode_varint(b"\xff" * 11)

    def test_final_byte_overflow_rejected(self):
        """A 10th byte with value bits above 2^63 must raise, not silently
        decode to a >64-bit Python int."""
        with pytest.raises(StorageError, match="64 bits"):
            decode_varint(b"\x80" * 9 + b"\x7f")
        with pytest.raises(StorageError, match="64 bits"):
            decode_varint(b"\xff" * 9 + b"\x02")

    def test_full_64_bit_value_still_decodes(self):
        value, offset = decode_varint(b"\xff" * 9 + b"\x01")
        assert value == 2**64 - 1 and offset == 10
        assert decode_varint(encode_varint(2**63))[0] == 2**63

    @given(st.integers(0, 2**63 - 1))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value


class TestSequences:
    def test_roundtrip(self):
        values = [0, 5, 128, 300, 2**40]
        data = encode_varints(values)
        decoded, offset = decode_varints(data, len(values))
        assert decoded == values and offset == len(data)

    def test_empty_sequence(self):
        assert encode_varints([]) == b""
        assert decode_varints(b"", 0) == ([], 0)

    def test_decode_at_offset(self):
        data = b"junk" + encode_varints([7, 9])
        decoded, _ = decode_varints(data, 2, offset=4)
        assert decoded == [7, 9]

    def test_negative_count_rejected(self):
        with pytest.raises(StorageError):
            decode_varints(b"", -1)

    def test_negative_value_rejected(self):
        with pytest.raises(StorageError, match="non-negative"):
            encode_varints([1, -2])

    @given(st.lists(st.integers(0, 2**50), max_size=200))
    def test_roundtrip_property(self, values):
        data = encode_varints(values)
        decoded, offset = decode_varints(data, len(values))
        assert decoded == values and offset == len(data)

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=50))
    def test_concatenation_is_seekable(self, values):
        """Sequential decodes walk the stream without a length prefix."""
        data = encode_varints(values)
        offset = 0
        for expected in values:
            value, offset = decode_varint(data, offset)
            assert value == expected
        assert offset == len(data)


class TestBlockDecoder:
    """decode_varints_block must be bit-identical to the scalar walk."""

    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=200),
        st.integers(0, 7),
    )
    def test_fuzz_matches_scalar(self, values, pad):
        data = bytes(range(pad)) + encode_varints(values) + b"\x99tail"
        expected, end = decode_varints(data, len(values), offset=pad)
        got, got_end = decode_varints_block(data, len(values), offset=pad)
        assert got.dtype == np.uint64
        assert [int(x) for x in got] == expected
        assert got_end == end

    def test_empty_count(self):
        values, end = decode_varints_block(b"\x81\x82", 0, offset=1)
        assert len(values) == 0 and end == 1

    def test_negative_count_rejected(self):
        with pytest.raises(StorageError):
            decode_varints_block(b"", -1)

    # Counts from 112 up leave the scalar fallback for the vectorised path.
    @pytest.mark.parametrize("count", [1, 3, 8, 50, 150, 400])
    def test_truncated_rejected(self, count):
        """Both the scalar fallback and the vectorised path diagnose
        truncation (the last varint never terminates)."""
        data = encode_varints(range(count - 1)) + b"\x80\x81"
        with pytest.raises(StorageError, match="truncated"):
            decode_varints_block(data, count)
        with pytest.raises(StorageError, match="truncated"):
            decode_varints(data, count)

    @pytest.mark.parametrize("count", [1, 9, 40, 150])
    def test_overlong_varint_rejected(self, count):
        """An 11+-byte varint overflows 64 bits in both decoders."""
        data = encode_varints(range(count - 1)) + b"\xff" * 10 + b"\x01"
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints_block(data, count)
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints(data, count)

    @pytest.mark.parametrize("count", [1, 9, 40, 150])
    def test_final_byte_overflow_rejected(self, count):
        """The tightened 10th-byte check is shared with the scalar walk."""
        data = encode_varints(range(count - 1)) + b"\x80" * 9 + b"\x7f"
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints_block(data, count)
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints(data, count)

    @pytest.mark.parametrize("count", [9, 150])
    def test_unterminated_overlong_tail_diagnosed_as_overflow(self, count):
        """Ten continuation bytes overflow before the missing terminator
        can be called a truncation, in both decoders."""
        data = encode_varints(range(count - 1)) + b"\xff" * 12
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints_block(data, count)
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints(data, count)

    def test_full_64_bit_values(self):
        values = [2**64 - 1, 2**63, 0, 1, 127, 128] * 4
        data = encode_varints(values)
        got, end = decode_varints_block(data, len(values))
        assert [int(x) for x in got] == values and end == len(data)

    def test_scan_is_bounded_by_count(self):
        """A huge trailing payload after the varints must not be scanned."""
        data = encode_varints(range(100)) + b"\x80" * 100_000
        got, end = decode_varints_block(data, 100)
        assert [int(x) for x in got] == list(range(100))
        assert end == len(encode_varints(range(100)))

    def test_midstream_overlong_with_short_tail_diagnosed_as_overflow(self):
        """An over-long varint that terminates mid-stream must be
        diagnosed as overflow (what the scalar walk hits first), even
        when the stream also ends before ``count`` terminators."""
        data = (
            encode_varints([1] * 80)
            + b"\x80" * 10 + b"\x01"   # 11-byte varint (terminates)
            + encode_varints([1] * 5)  # stream then truncates
        )
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints_block(data, 161)
        with pytest.raises(StorageError, match="64 bits"):
            decode_varints(data, 161)
