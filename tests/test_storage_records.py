"""Tests for the record encodings (repro.storage.records)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listform import encode_inverted_lists, encode_rr_sets
from repro.errors import StorageError
from repro.storage.compression import Codec
from repro.storage.records import InvertedListsRecord, RRSetsRecord

id_array = st.lists(
    st.integers(0, 5000), min_size=0, max_size=40, unique=True
).map(sorted).map(lambda xs: np.asarray(xs, dtype=np.int64))


def decode_rr_record(record, count=None):
    """The first ``count`` sets (default: all) of an encoded record, as a
    list of arrays, through the reader's own steps: header, offset
    table, bounded payload slice, ``decode_prefix_csr``."""
    n_sets, group_size, payload_len, payload_start = RRSetsRecord.read_header(record)
    start, length = RRSetsRecord.offset_table_range(record)
    offsets = RRSetsRecord.decode_offsets(record[start : start + length])
    count = n_sets if count is None else count
    end = RRSetsRecord.prefix_payload_end(offsets, payload_len, group_size, count)
    ptr, flat = RRSetsRecord.decode_prefix_csr(
        record[payload_start : payload_start + end], count
    )
    assert len(ptr) == count + 1
    return [flat[ptr[i] : ptr[i + 1]] for i in range(count)]


def decode_inverted_record(record):
    """An encoded record as ``[(key, ids)]`` via ``decode_csr``."""
    keys, ptr, flat = InvertedListsRecord.decode_csr(record)
    return [(int(k), flat[ptr[i] : ptr[i + 1]]) for i, k in enumerate(keys)]


class TestRRSetsRecord:
    def test_roundtrip(self):
        sets = [np.array([1, 5, 9]), np.array([0]), np.array([], dtype=np.int64)]
        record = encode_rr_sets(sets)
        out = decode_rr_record(record)
        assert len(out) == 3
        for a, b in zip(sets, out):
            assert np.array_equal(a, b)

    def test_empty_collection(self):
        record = encode_rr_sets([])
        assert decode_rr_record(record) == []

    def test_header_fields(self):
        sets = [np.array([i]) for i in range(10)]
        record = encode_rr_sets(sets, group_size=4)
        n_sets, group_size, payload_len, payload_start = RRSetsRecord.read_header(
            record
        )
        assert n_sets == 10 and group_size == 4
        assert payload_start == RRSetsRecord.HEADER_SIZE + 8 * 3  # 3 groups

    def test_prefix_decode_via_offsets(self):
        sets = [np.array([i, i + 100]) for i in range(20)]
        record = encode_rr_sets(sets, group_size=4)
        for count in (1, 4, 5, 20):
            decoded = decode_rr_record(record, count)
            assert len(decoded) == count
            for i, rr in enumerate(decoded):
                assert np.array_equal(rr, sets[i])

    def test_prefix_cut_short_rejected(self):
        """A prefix asked for more sets than its payload slice holds."""
        record = encode_rr_sets([np.array([i, i + 100]) for i in range(8)])
        _n, _g, payload_len, payload_start = RRSetsRecord.read_header(record)
        payload = record[payload_start : payload_start + payload_len]
        with pytest.raises(StorageError):
            RRSetsRecord.decode_prefix_csr(payload[:-3], 8)
        with pytest.raises(StorageError, match="ends after 8 of 9 sets"):
            RRSetsRecord.decode_prefix_csr(payload, 9)

    def test_prefix_zero(self):
        offsets = np.array([0, 100])
        assert RRSetsRecord.prefix_payload_end(offsets, 500, 4, 0) == 0

    def test_offsets_monotone(self):
        sets = [np.arange(i + 1) for i in range(50)]
        record = encode_rr_sets(sets, group_size=8)
        start, length = RRSetsRecord.offset_table_range(record)
        offsets = RRSetsRecord.decode_offsets(record[start : start + length])
        assert np.all(np.diff(offsets) > 0)

    def test_bad_group_size(self):
        with pytest.raises(StorageError):
            encode_rr_sets([], group_size=0)

    def test_truncated_header(self):
        with pytest.raises(StorageError):
            RRSetsRecord.read_header(b"\x01")

    def test_bad_offset_table_length(self):
        with pytest.raises(StorageError):
            RRSetsRecord.decode_offsets(b"\x00" * 7)

    def test_zero_group_size_in_a_header_rejected(self):
        """Ranged reads skip the CRC, so the header arrives unverified;
        ``group_size = 0`` used to be a ZeroDivisionError."""
        header = struct.pack("<IIQ", 5, 0, 100)
        with pytest.raises(StorageError, match="group_size"):
            RRSetsRecord.read_header(header)
        with pytest.raises(StorageError, match="group_size"):
            RRSetsRecord.offset_table_range(header)

    @pytest.mark.parametrize("offsets", [[1, 5], [0, 7, 7], [0, 9, 4], [0, 2**63]])
    def test_offset_table_must_ascend_from_zero(self, offsets):
        with pytest.raises(StorageError, match="ascend from 0"):
            RRSetsRecord.decode_offsets(np.asarray(offsets, dtype="<u8").tobytes())

    def test_ptr_must_end_at_the_vertices(self):
        with pytest.raises(StorageError, match="end at len"):
            RRSetsRecord.encode(np.array([0, 1]), np.array([4, 5]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(id_array, max_size=30), st.sampled_from(list(Codec)))
    def test_roundtrip_property(self, sets, codec):
        record = encode_rr_sets(sets, codec, group_size=4)
        out = decode_rr_record(record)
        assert len(out) == len(sets)
        for a, b in zip(sets, out):
            assert np.array_equal(a, b)


class TestInvertedListsRecord:
    def test_roundtrip(self):
        lists = [(3, np.array([0, 2, 9])), (7, np.array([1])), (0, np.array([], dtype=np.int64))]
        out = decode_inverted_record(encode_inverted_lists(lists))
        assert [(k, v.tolist()) for k, v in out] == [
            (k, v.tolist()) for k, v in lists
        ]

    def test_order_preserved(self):
        # IL_w stores lists by descending length, not key order.
        lists = [(9, np.array([1, 2, 3])), (1, np.array([5, 6])), (4, np.array([0]))]
        out = decode_inverted_record(encode_inverted_lists(lists))
        assert [k for k, _ in out] == [9, 1, 4]

    def test_empty_collection(self):
        assert decode_inverted_record(encode_inverted_lists([])) == []

    def test_negative_key_rejected(self):
        with pytest.raises(StorageError, match="keys must be non-negative"):
            encode_inverted_lists([(-1, np.array([1]))])

    def test_truncated_rejected(self):
        record = encode_inverted_lists([(1, np.array([1, 2, 3]))])
        with pytest.raises(StorageError, match="payload truncated"):
            InvertedListsRecord.decode_csr(record[:-2])
        with pytest.raises(StorageError, match="header truncated"):
            InvertedListsRecord.decode_csr(record[:5])

    def test_trailing_bytes_rejected(self):
        """A payload longer than its lists account for must fail: the
        header's payload_len is one more than the walk consumes."""
        record = encode_inverted_lists([(1, np.array([1]))])
        n_lists, payload_len = struct.unpack_from("<IQ", record)
        broken = struct.pack("<IQ", n_lists, payload_len + 1) + record[12:] + b"\x00"
        with pytest.raises(StorageError, match="trailing bytes"):
            InvertedListsRecord.decode_csr(broken)

    def test_no_allocation_from_an_unchecked_count(self):
        """A 12-byte record claiming 2**31 lists used to die in
        ``np.empty(n_lists)`` (16 GiB) before looking at the payload."""
        with pytest.raises(StorageError, match="no codec tag"):
            InvertedListsRecord.decode_csr(struct.pack("<IQ", 2**31, 0))
        record = struct.pack("<IQ", 2**31, 3) + bytes([Codec.PFOR.value, 0, 0])
        with pytest.raises(StorageError, match="cannot fit in the 2 bytes"):
            InvertedListsRecord.decode_csr(record)

    def test_key_outside_the_id_domain_rejected(self):
        """Zig-zag differences that walk the keys below zero."""
        payload = bytes([Codec.VARINT.value, 3, 0, 0])  # one key: -2; no ids
        record = struct.pack("<IQ", 1, len(payload)) + payload
        with pytest.raises(StorageError, match="key outside the id domain"):
            InvertedListsRecord.decode_csr(record)

    def test_keys_must_match_the_lists(self):
        with pytest.raises(StorageError, match="one per id list"):
            InvertedListsRecord.encode(np.array([1, 2]), np.array([0, 1]), np.array([4]))

    def test_multibyte_keys_roundtrip(self):
        """Keys whose differences need more than a byte."""
        lists = [(127, np.array([1])), (128, np.array([2])), (70_000, np.array([3]))]
        out = decode_inverted_record(encode_inverted_lists(lists))
        assert [k for k, _ in out] == [127, 128, 70_000]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), id_array), max_size=30
        ),
        st.sampled_from(list(Codec)),
    )
    def test_roundtrip_property(self, lists, codec):
        out = decode_inverted_record(encode_inverted_lists(lists, codec))
        assert len(out) == len(lists)
        for (ka, va), (kb, vb) in zip(lists, out):
            assert ka == kb and np.array_equal(va, vb)
