"""Tests for LEB128 varints (repro.storage.varint): the coding of the
index format's header fields."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from repro.errors import StorageError
from repro.storage.compression import Codec
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.storage.varint import decode_varint, encode_varints


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


def walk(data, count, offset=0):
    """``count`` back-to-back varints by repeated :func:`decode_varint`:
    ``(values, next_offset)``."""
    values = []
    for _ in range(count):
        value, offset = decode_varint(data, offset)
        values.append(value)
    return values, offset


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
        # A tenth byte whose value bits fit still may not continue.
        with pytest.raises(StorageError, match="64 bits"):
            decode_varint(b"\x80" * 9 + b"\x81\x01")

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
    """``encode_varints`` writes values back to back, with no length
    prefix: repeated ``decode_varint`` calls walk them."""

    def test_roundtrip(self):
        values = [0, 5, 128, 300, 2**40]
        data = encode_varints(values)
        assert walk(data, len(values)) == (values, len(data))

    def test_empty_sequence(self):
        assert encode_varints([]) == b""
        assert walk(b"", 0) == ([], 0)

    def test_decode_at_offset(self):
        data = b"junk" + encode_varints([7, 9])
        assert walk(data, 2, offset=4) == ([7, 9], len(data))

    def test_negative_value_rejected(self):
        with pytest.raises(StorageError, match="non-negative"):
            encode_varints([1, -2])

    def test_full_64_bit_values(self):
        values = [2**64 - 1, 2**63, 0, 1, 127, 128] * 4
        data = encode_varints(values)
        assert walk(data, len(values)) == (values, len(data))

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=200), st.integers(0, 7))
    def test_roundtrip_property(self, values, pad):
        data = bytes(range(pad)) + encode_varints(values) + b"\x99tail"
        assert walk(data, len(values), offset=pad) == (
            values,
            len(data) - len(b"\x99tail"),
        )

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=50))
    def test_concatenation_is_seekable(self, values):
        """Sequential decodes walk the stream without a length prefix."""
        data = encode_varints(values)
        offset = 0
        for expected in values:
            value, offset = decode_varint(data, offset)
            assert value == expected
        assert offset == len(data)


# ----------------------------------------------------------------------
# corrupt header fields, where the records read them
# ----------------------------------------------------------------------
_INV_HEADER = struct.Struct("<IQ")  # n_lists, payload_len


def rr_group_n(count):
    """``(head, tail, decode)``: the payload of an RR record of ``count``
    one-set group chunks, split at its last chunk's set count ``n``, and
    the decode of its ``count`` sets from a payload."""
    ptr = np.arange(count + 1)
    record = RRSetsRecord.encode(ptr, np.arange(count) * 3, group_size=1)
    _n, _group, _length, start = RRSetsRecord.read_header(record)
    offsets = RRSetsRecord.decode_offsets(record[RRSetsRecord.HEADER_SIZE : start])
    cut = start + int(offsets[-1]) + 1  # behind the last chunk's codec tag
    return (
        record[start:cut],
        record[cut:],
        lambda payload: RRSetsRecord.decode_prefix_csr(payload, count),
    )


def inverted(count, cut):
    """``(head, tail, decode)`` of an inverted-list record of ``count``
    lists, all keyed 0, its payload split ``cut`` bytes in; the decode
    frames a payload under a header that matches its length."""
    keys = np.zeros(count, dtype=np.int64)
    payload = InvertedListsRecord.encode(keys, np.arange(count + 1), keys)[
        _INV_HEADER.size :
    ]
    return (
        payload[:cut],
        payload[cut:],
        lambda payload: InvertedListsRecord.decode_csr(
            _INV_HEADER.pack(count, len(payload)) + payload
        ),
    )


def pfor_n_exceptions(count):
    """... split at the keys stream's exception count: behind the codec
    tag and the stream's one width byte per 128-value block."""
    return inverted(count, 1 + -(-count // 128))


def id_list_total(count):
    """... split at the id-list set's ``total``: behind the tag and the
    all-zero keys stream (width-0 blocks and no exceptions)."""
    return inverted(count, 1 + -(-count // 128) + 1)


#: The header fields :func:`decode_varint` reads, each in a record that
#: carries it, and the field's value in a record of 200 sets or lists.
HEADER_FIELDS = {
    "group n": (rr_group_n, 1),
    "id-list total": (id_list_total, 200),
    "pfor n_exceptions": (pfor_n_exceptions, 0),
}


def split(field, count):
    """``(head, rest, decode)``: a record's bytes before and after the
    field, and its decode."""
    head, tail, decode = HEADER_FIELDS[field][0](count)
    return head, tail[decode_varint(tail)[1] :], decode


class TestCorruptHeaderFields:
    """A corrupt varint header field fails its record's decode with a
    typed error — truncated, over-long, overflowing in its tenth byte,
    or an unterminated over-long tail — however many sets or lists
    precede it."""

    @pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
    def test_the_split_is_at_the_field(self, field):
        """Rejoined, the record decodes; the tail starts with the field's
        value (one set per chunk, 200 lists, no exceptions)."""
        make, value = HEADER_FIELDS[field]
        head, tail, decode = make(200)
        assert head[0] == Codec.PFOR.value
        assert decode_varint(tail)[0] == value
        first = decode(head + tail)[0]  # set_ptr, or the keys
        assert first.tolist() == (
            list(range(201)) if field == "group n" else [0] * 200
        )

    @pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
    @pytest.mark.parametrize("count", [1, 3, 8, 50, 150, 400])
    def test_truncated_rejected(self, field, count):
        """The field never terminates: the record ends first."""
        head, _rest, decode = split(field, count)
        with pytest.raises(StorageError, match="truncated varint"):
            decode(head + b"\x80\x81")

    @pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
    @pytest.mark.parametrize("count", [1, 9, 40, 150])
    def test_overlong_varint_rejected(self, field, count):
        """An 11-byte varint overflows 64 bits, whether or not its tenth
        byte carries value bits above bit 63."""
        head, rest, decode = split(field, count)
        for overlong in (b"\xff" * 10 + b"\x01", b"\x80" * 10 + b"\x01"):
            with pytest.raises(StorageError, match="64 bits"):
                decode(head + overlong + rest)

    @pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
    @pytest.mark.parametrize("count", [1, 9, 40, 150])
    def test_final_byte_overflow_rejected(self, field, count):
        """A 10th byte with value bits above 2^63."""
        head, rest, decode = split(field, count)
        with pytest.raises(StorageError, match="64 bits"):
            decode(head + b"\x80" * 9 + b"\x7f" + rest)

    @pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
    @pytest.mark.parametrize("count", [9, 150])
    def test_unterminated_overlong_tail_diagnosed_as_overflow(self, field, count):
        """Ten continuation bytes overflow before the missing terminator
        can be called a truncation."""
        head, _rest, decode = split(field, count)
        with pytest.raises(StorageError, match="64 bits"):
            decode(head + b"\xff" * 12)
