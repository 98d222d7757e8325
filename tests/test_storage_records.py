"""Tests for the record encodings (repro.storage.records)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listform import encode_inverted_lists, encode_rr_sets
from oracles import decode_inverted_record as oracle_inverted_record
from oracles import decode_rr_payload
from repro.errors import StorageError
from repro.storage.compression import Codec, StreamDecoder, StreamEncoder, encode_stream
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
        # One key, zig-zag 3 = -2; an id-list set of total 0, one count 0.
        payload = bytes([Codec.RAW.value]) + (3).to_bytes(8, "little") + bytes(9)
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

    @pytest.mark.parametrize("codec", list(Codec))
    def test_partitions_queued_at_once_equal_one_record_each(self, codec):
        """What the IRR writer queues per keyword: each partition's record
        (empty ones too, keys restarting their deltas at each) is the
        record of its slice alone."""
        rng = np.random.default_rng(5)
        lists = [np.sort(rng.choice(500, size=rng.integers(0, 6), replace=False)) for _ in range(20)]
        keys = rng.permutation(100)[:20]
        ptr = np.cumsum([0] + [len(ids) for ids in lists])
        ids = np.concatenate(lists).astype(np.int64)
        bounds = np.array([0, 0, 7, 7, 13, 20])
        encoder = StreamEncoder()
        frames = InvertedListsRecord.queue_encode_partitions(
            encoder, keys, ptr, ids, bounds, codec
        )
        streams = encoder.finish()
        assert len(frames) == len(bounds) - 1
        for lo, hi, frame in zip(bounds[:-1], bounds[1:], frames):
            alone = InvertedListsRecord.encode(
                keys[lo:hi], ptr[lo : hi + 1] - ptr[lo], ids[ptr[lo] : ptr[hi]], codec
            )
            assert frame(streams) == alone


class TestSplitSegment:
    """An IRR segment frames its records back to back; ``split`` cuts
    them apart by their headers and insists they fill it exactly."""

    RECORDS = [
        encode_inverted_lists([(3, np.array([0, 2, 9])), (7, np.array([1]))]),
        encode_inverted_lists([]),
        encode_inverted_lists([(0, np.arange(200))], Codec.RAW),
    ]

    def test_records_come_back_whole_and_in_order(self):
        segment = b"".join(self.RECORDS)
        parts = InvertedListsRecord.split(memoryview(segment), 3)
        assert [bytes(part) for part in parts] == self.RECORDS
        assert InvertedListsRecord.split(b"", 0) == []

    def test_a_header_cut_short_is_rejected(self):
        segment = b"".join(self.RECORDS)
        with pytest.raises(StorageError, match="header truncated"):
            InvertedListsRecord.split(segment[: len(self.RECORDS[0]) + 5], 2)
        with pytest.raises(StorageError, match="header truncated"):
            InvertedListsRecord.split(segment, 4)  # one record fewer than asked

    def test_a_payload_past_the_segment_end_is_rejected(self):
        segment = b"".join(self.RECORDS)
        with pytest.raises(StorageError, match="overruns by 1 bytes"):
            InvertedListsRecord.split(segment[:-1], 3)

    def test_a_trailing_byte_is_rejected(self):
        segment = b"".join(self.RECORDS)
        with pytest.raises(StorageError, match="1 trailing bytes after 3 records"):
            InvertedListsRecord.split(segment + b"\x00", 3)
        with pytest.raises(StorageError, match="trailing bytes after 2"):
            InvertedListsRecord.split(segment, 2)


# ----------------------------------------------------------------------
# One decoding session over several records (the load unit of a cache
# miss or a partition load).
# ----------------------------------------------------------------------
#: Mostly small ids with a few far outliers per list: once a record holds
#: a few lists its gap stream carries a real PFOR exception table.
spiky_ids = st.lists(
    st.one_of(st.integers(0, 300), st.integers(2**40, 2**40 + 300)),
    max_size=40,
    unique=True,
).map(sorted).map(lambda xs: np.asarray(xs, dtype=np.int64))

rr_case = st.tuples(
    st.just("rr"),
    st.lists(spiky_ids, max_size=30),
    st.sampled_from(list(Codec)),
    st.integers(0, 30),  # sets to skip at the end: a prefix of its payload
)
inv_case = st.tuples(
    st.just("inv"),
    st.lists(st.tuples(st.integers(0, 10_000), spiky_ids), max_size=30),
    st.sampled_from(list(Codec)),
    st.just(0),
)


def rr_payload(record):
    return record[RRSetsRecord.read_header(record)[3] :]


class TestDecodingSession:
    """Records queued into one ``StreamDecoder`` decode as they do alone."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.one_of(rr_case, inv_case), min_size=1, max_size=4))
    def test_a_session_decodes_each_record_as_the_oracle_does(self, cases):
        decoder = StreamDecoder()
        queued = []
        for kind, items, codec, skip in cases:
            if kind == "rr":
                payload = rr_payload(encode_rr_sets(items, codec, group_size=4))
                count = max(len(items) - skip, 0)
                take = RRSetsRecord.queue_prefix(decoder, payload, count)
                alone = RRSetsRecord.decode_prefix_csr(payload, count)
                expected = decode_rr_payload(payload, count)
            else:
                record = encode_inverted_lists(items, codec)
                take = InvertedListsRecord.queue(decoder, record)
                alone = InvertedListsRecord.decode_csr(record)
                expected = oracle_inverted_record(record)
            queued.append((kind, take, alone, expected))
        streams = decoder.finish()
        for kind, take, alone, expected in queued:
            fused = take(streams)
            assert all(a.dtype == np.int64 for a in fused)
            for ours, theirs in zip(fused, alone):
                assert np.array_equal(ours, theirs)
            *keys, ptr, flat = fused
            lists = [flat[ptr[i] : ptr[i + 1]].tolist() for i in range(len(ptr) - 1)]
            if kind == "rr":
                assert lists == expected
            else:
                assert list(zip(keys[0].tolist(), lists)) == expected

    def test_a_pfor_session_really_carries_exception_tables(self):
        """The strategy above is only worth its name if outliers end up
        in exception tables — and two records' tables patch separately."""
        rng = np.random.default_rng(3)
        sets = [np.unique(rng.integers(0, 300, 12)) for _ in range(40)]
        for ids in sets[::5]:
            ids[-1] += 2**40
        payload = rr_payload(encode_rr_sets(sets))
        record = encode_inverted_lists(list(enumerate(sets)))
        decoder = StreamDecoder()
        takes = [
            RRSetsRecord.queue_prefix(decoder, payload, len(sets)),
            InvertedListsRecord.queue(decoder, record),
        ]
        assert len(decoder._tables) >= 2
        streams = decoder.finish()
        for take in takes:
            *_keys, ptr, flat = take(streams)
            assert [flat[ptr[i] : ptr[i + 1]].tolist() for i in range(40)] == [
                ids.tolist() for ids in sets
            ]

    @pytest.mark.parametrize("codec", list(Codec))
    def test_a_truncated_rr_payload_fails_on_its_own_end(self, codec):
        """In the joined buffer the bytes around a record are its
        neighbour's: a payload cut short must raise on its own length,
        wherever in the session it starts."""
        sets = [np.arange(i, i + 9) for i in range(20)]
        payload = rr_payload(encode_rr_sets(sets, codec))
        decoder = StreamDecoder()
        InvertedListsRecord.queue(
            decoder, encode_inverted_lists(list(enumerate(sets)), codec)
        )
        with pytest.raises(StorageError):  # at once: nothing is unpacked first
            RRSetsRecord.queue_prefix(decoder, payload[:-2], len(sets))

    @pytest.mark.parametrize("codec", list(Codec))
    def test_a_corrupt_list_count_fails_on_its_own_record(self, codec):
        """An ``IL`` header claiming more lists than its payload holds,
        next to a valid ``IR``: the session holds enough bytes for the
        extra values (``IR``'s), and must not decode them from there."""
        lists = [(v, np.arange(v, v + 6)) for v in range(150)]
        il, ir = encode_inverted_lists(lists, codec), encode_inverted_lists(lists, codec)
        n_lists, payload_len = struct.unpack_from("<IQ", il)
        corrupt = struct.pack("<IQ", n_lists + 130, payload_len) + il[12:]
        decoder = StreamDecoder(ir)
        with pytest.raises(StorageError):
            InvertedListsRecord.queue(decoder, corrupt)

    def test_a_record_longer_than_its_header_says_is_rejected(self):
        """``decode_csr`` used to slice ``payload_len`` bytes and ignore
        the rest; in a session the rest is the next record."""
        record = encode_inverted_lists([(1, np.array([1, 2, 3]))])
        with pytest.raises(StorageError, match="payload overrun"):
            InvertedListsRecord.decode_csr(record + b"\x00")
        decoder = StreamDecoder()
        with pytest.raises(StorageError, match="payload overrun"):
            InvertedListsRecord.queue(decoder, record + record)

    def test_positions_count_from_the_open_record(self):
        """``open`` re-bases ``read``: the second record's streams are
        addressed from its own first byte and land after the first's."""
        first = encode_stream(np.arange(300, dtype=np.uint64), Codec.PFOR)
        second = encode_stream(np.arange(7, 200, dtype=np.uint64), Codec.PFOR)
        decoder = StreamDecoder(first)
        assert decoder.read(Codec.PFOR.value, 300, 0) == len(first)
        assert decoder.open(second) == 1
        assert decoder.read(Codec.PFOR.value, 193, 0) == len(second)
        a, b = decoder.finish()
        assert a.tolist() == list(range(300)) and b.tolist() == list(range(7, 200))
