"""Tests for the stream codecs (repro.storage.compression)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.storage.compression as compression_module
from oracles import (
    decode_rr_payload,
    decode_stream,
    encode_id_lists_reference,
    encode_stream_reference,
    encode_varint,
)
from repro.errors import StorageError
from repro.storage.bitpack import pack_runs
from repro.storage.compression import (
    Codec,
    StreamDecoder,
    StreamEncoder,
    encode_id_lists,
    encode_stream,
    id_lists_from_streams,
)

sorted_ids = st.lists(
    st.integers(0, 2**40), min_size=0, max_size=400, unique=True
).map(sorted).map(lambda xs: np.asarray(xs, dtype=np.int64))


def compress_ids(ids, codec=Codec.PFOR):
    """One id list as a self-describing blob: ``tag | n = 1 | id-list
    set`` — a one-set group chunk of an ``RRSetsRecord`` payload."""
    ids = np.asarray(ids)
    return bytes([codec.value, 1]) + encode_id_lists([0, ids.shape[0]], ids, codec)


def decode_lists(blob, n_lists, offset=0):
    """``n_lists`` one-list blobs back to back through the decoder that
    serves queries: ``(ptr, flat, end)``."""
    decoder, pos = StreamDecoder(blob), offset
    for _ in range(n_lists):
        if pos >= len(blob):
            raise StorageError("missing codec tag")
        assert blob[pos + 1] == 1
        pos = decoder.read_id_lists(blob[pos], 1, pos + 2)
    streams = decoder.finish()
    empty = np.empty(0, dtype=np.uint64)
    ptr, flat = id_lists_from_streams(
        np.concatenate(streams[0::2] + [empty]), np.concatenate(streams[1::2] + [empty])
    )
    return ptr, flat, pos


def decode_one(blob, offset=0):
    """One list: ``(ids, end)``."""
    ptr, flat, end = decode_lists(blob, 1, offset)
    assert ptr.tolist() == [0, len(flat)]
    return flat, end


def raw(*values):
    """A hand-framed RAW stream: each value as a little-endian ``u64``."""
    return b"".join(value.to_bytes(8, "little") for value in values)


def decode_values(blob, codec, m):
    """One stream of ``m`` values, which must end the blob."""
    decoder = StreamDecoder(blob)
    assert decoder.read(codec.value, m, 0) == len(blob)
    (values,) = decoder.finish()
    return values


class TestRoundtrips:
    @pytest.mark.parametrize("codec", list(Codec))
    def test_simple(self, codec):
        ids = np.array([0, 3, 7, 100, 10_000], dtype=np.int64)
        out, offset = decode_one(compress_ids(ids, codec))
        assert np.array_equal(out, ids) and out.dtype == np.int64

    @pytest.mark.parametrize("codec", list(Codec))
    def test_empty(self, codec):
        out, _ = decode_one(compress_ids(np.array([], dtype=np.int64), codec))
        assert len(out) == 0
        assert encode_stream(np.array([], dtype=np.uint64), codec) == b""

    @pytest.mark.parametrize("codec", list(Codec))
    def test_single_zero(self, codec):
        out, _ = decode_one(compress_ids(np.array([0]), codec))
        assert out.tolist() == [0]

    @pytest.mark.parametrize("codec", list(Codec))
    def test_offset_decoding_back_to_back(self, codec):
        a = np.array([1, 5, 9])
        b = np.array([2, 4])
        blob = compress_ids(a, codec) + compress_ids(b, codec)
        out_a, offset = decode_one(blob)
        out_b, end = decode_one(blob, offset)
        assert np.array_equal(out_a, a) and np.array_equal(out_b, b)
        assert end == len(blob)
        ptr, flat, end = decode_lists(blob, 2)  # and in one unpack
        assert ptr.tolist() == [0, 3, 5] and flat.tolist() == [1, 5, 9, 2, 4]

    @settings(max_examples=80, deadline=None)
    @given(sorted_ids, st.sampled_from(list(Codec)))
    def test_roundtrip_property(self, ids, codec):
        blob = compress_ids(ids, codec)
        out, offset = decode_one(blob)
        assert np.array_equal(out, ids) and offset == len(blob)
        assert decode_rr_payload(blob, 1) == [ids.tolist()]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 300), max_size=400),
        st.sampled_from(list(Codec)),
    )
    def test_stream_roundtrip_property(self, values, codec):
        """Streams carry any ``uint64``, not just id gaps."""
        blob = encode_stream(np.asarray(values, dtype=np.uint64), codec)
        assert decode_values(blob, codec, len(values)).tolist() == values
        assert decode_stream(blob, codec.value, len(values)) == (values, len(blob))


#: Streams in every shape the width choice has a case for.
stream_values = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=1),
    st.lists(st.just(0), min_size=1, max_size=300),  # width 0
    st.lists(st.integers(2**63, 2**64 - 1), min_size=1, max_size=200),  # width 64
    # Exception-heavy: small values with wide ones scattered through.
    st.lists(st.integers(0, 3) | st.integers(2**20, 2**64 - 1), max_size=400),
    st.lists(st.integers(0, 300), max_size=400),
)


def examples(n):
    """Hypothesis settings for a test that takes the ``encode_slice``
    fixture: it is set once per test, so reusing it is intended."""
    return settings(
        max_examples=n,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


class TestEncodingSession:
    """One :class:`StreamEncoder` session of many streams == the scalar
    per-stream reference, stream by stream."""

    @pytest.fixture(params=[compression_module._ENCODE_SLICE, 150])
    def encode_slice(self, request, monkeypatch):
        """The default pass size, and one so small that a session's
        streams split across several passes (set once per test: every
        generated input runs under it)."""
        monkeypatch.setattr(compression_module, "_ENCODE_SLICE", request.param)

    @examples(60)
    @given(streams=st.lists(st.tuples(stream_values, st.sampled_from(list(Codec))), max_size=12))
    def test_streams_equal_the_reference(self, encode_slice, streams):
        encoder = StreamEncoder()
        index = [encoder.queue(np.asarray(v, dtype=np.uint64), codec) for v, codec in streams]
        encoded = encoder.finish()
        assert index == list(range(len(streams)))
        assert encoded == [encode_stream_reference(v, codec) for v, codec in streams]

    @examples(40)
    @given(
        streams=st.lists(stream_values, min_size=1, max_size=8),
        codec=st.sampled_from(list(Codec)),
    )
    def test_one_column_split_into_streams(self, encode_slice, streams, codec):
        encoder = StreamEncoder()
        encoder.queue(np.zeros(3, dtype=np.uint64), codec)
        first = encoder.queue(
            np.asarray(sum(streams, []), dtype=np.uint64),
            codec,
            np.array([len(v) for v in streams]),
        )
        encoded = encoder.finish()
        assert first == 1 and len(encoded) == 1 + len(streams)
        assert encoded[1:] == [encode_stream_reference(v, codec) for v in streams]

    @examples(40)
    @given(
        lists=st.lists(sorted_ids.map(np.ndarray.tolist), max_size=12),
        data=st.data(),
        codec=st.sampled_from(list(Codec)),
    )
    def test_id_list_sets_equal_the_reference(self, encode_slice, lists, data, codec):
        """Sets of any consecutive lists (empty sets too), or one of all."""
        cuts = data.draw(st.lists(st.integers(0, len(lists)), max_size=4) | st.none())
        bounds = None if cuts is None else np.array(sorted([0, len(lists), *cuts]))
        ptr = np.cumsum([0] + [len(ids) for ids in lists])
        encoder = StreamEncoder()
        flat = np.asarray(sum(lists, []), dtype=np.int64)
        id_list_set = encoder.queue_id_lists(ptr, flat, codec, bounds)
        streams = encoder.finish()
        if bounds is None:
            groups = [lists]
        else:
            groups = [lists[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert [id_list_set(streams, j) for j in range(len(groups))] == [
            encode_id_lists_reference(g, codec) for g in groups
        ]


class TestValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(StorageError, match="increasing"):
            compress_ids(np.array([3, 1, 2]))

    def test_duplicates_rejected(self):
        with pytest.raises(StorageError, match="increasing"):
            compress_ids(np.array([1, 1, 2]))

    def test_negative_rejected(self):
        with pytest.raises(StorageError, match="non-negative"):
            compress_ids(np.array([-1, 2]))
        with pytest.raises(StorageError, match="non-negative"):
            encode_stream(np.array([3, -1]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(StorageError):
            encode_id_lists([0, 2], np.array([[1, 2]]))
        with pytest.raises(StorageError):
            encode_stream(np.array([[1, 2]]))

    def test_inconsistent_ptr_rejected(self):
        for ptr in ([1, 2], [0, 3], [0, 2, 1, 2], []):
            with pytest.raises(StorageError, match="ptr"):
                encode_id_lists(ptr, np.array([4, 5]))

    @pytest.mark.parametrize("tag", [238, 1])
    def test_unknown_tag_rejected(self, tag):
        """Tag 1 belonged to a retired LEB128 codec: no reader for it is kept."""
        with pytest.raises(StorageError, match=f"unknown codec tag {tag}"):
            decode_one(bytes([tag, 1, 0]))

    def test_truncated_raw_rejected(self):
        blob = compress_ids(np.array([1, 2, 3]), Codec.RAW)
        with pytest.raises(StorageError, match="truncated RAW stream"):
            decode_one(blob[:-4])

    def test_truncated_pfor_rejected(self):
        """A PFoR stream cut inside its packed payload, one cut inside its
        width column (3 blocks of gaps, 2 width bytes left) and one cut
        right behind it (no exception count)."""
        blob = compress_ids(np.arange(0, 600, 2), Codec.PFOR)
        with pytest.raises(StorageError, match="truncated PFoR payload"):
            decode_one(blob[: len(blob) // 2])
        gaps_at = len(blob) - len(encode_stream(np.full(300, 2), Codec.PFOR))
        with pytest.raises(StorageError, match="cannot fit in the 2 bytes"):
            decode_one(blob[: gaps_at + 2])
        with pytest.raises(StorageError, match="truncated varint"):
            decode_one(blob[: gaps_at + 3])

    @pytest.mark.parametrize("width", [65, 255])
    def test_bad_pfor_width_rejected(self, width):
        ids = np.arange(0, 40, 2)
        blob = bytearray(compress_ids(ids, Codec.PFOR))
        blob[len(blob) - len(encode_stream(np.full(20, 2), Codec.PFOR))] = width
        with pytest.raises(StorageError, match=f"bad PFoR width {width}"):
            decode_one(bytes(blob) + bytes(20 * width // 8))

    def test_width_zero_block_is_all_zeros(self):
        """Width 0 is a legal block width: 128 zeros cost their width byte."""
        blob = encode_stream(np.zeros(128, dtype=np.uint64), Codec.PFOR)
        assert blob == bytes([0, 0])  # one width, no exceptions, no payload
        assert decode_values(blob, Codec.PFOR, 128).tolist() == [0] * 128

    def test_empty_input_rejected(self):
        with pytest.raises(StorageError, match="missing codec tag"):
            decode_one(b"")
        with pytest.raises(StorageError, match="cannot fit"):
            StreamDecoder(b"").read(Codec.PFOR.value, 1, 0)

    def test_more_lists_than_the_buffer_holds_rejected(self):
        blob = compress_ids(np.array([1, 2]), Codec.RAW)
        with pytest.raises(StorageError, match="missing codec tag"):
            decode_lists(blob, 2)

    @pytest.mark.parametrize("codec", list(Codec))
    def test_no_allocation_from_an_unchecked_count(self, codec):
        """A declared size is held against the bytes that remain before
        anything is sized by it (2**40 values would be 8 TiB)."""
        blob = encode_stream(np.arange(300, dtype=np.uint64), codec)
        with pytest.raises(StorageError, match="cannot fit|truncated"):
            StreamDecoder(blob).read(codec.value, 2**40, 0)
        lists = bytes([codec.value, 1]) + encode_varint(2**40) + blob
        with pytest.raises(StorageError, match="cannot fit|truncated|add up|exceeds"):
            decode_one(lists)


class TestCompressionBehaviour:
    """Table 4's premise: the codecs actually shrink sorted id lists."""

    def test_pfor_beats_raw_on_dense_lists(self):
        ids = np.arange(0, 5000, 3, dtype=np.int64)
        raw = compress_ids(ids, Codec.RAW)
        pfor = compress_ids(ids, Codec.PFOR)
        assert len(pfor) < len(raw) / 4

    def test_pfor_handles_outlier_gaps(self):
        # Mostly gap-1 values with one huge jump: the exception path.
        ids = np.concatenate(
            [np.arange(200), np.arange(2**33, 2**33 + 200)]
        ).astype(np.int64)
        blob = compress_ids(ids, Codec.PFOR)
        assert len(blob) < 100  # the jump did not widen its block
        out, _ = decode_one(blob)
        assert np.array_equal(out, ids)

    def test_pfor_block_boundary_sizes(self):
        # Exercise lengths around the 128-value block boundary.
        for n in (127, 128, 129, 255, 256, 257):
            ids = np.arange(n, dtype=np.int64) * 2
            out, _ = decode_one(compress_ids(ids, Codec.PFOR))
            assert np.array_equal(out, ids), n

    def test_pfor_width_is_the_cheapest(self):
        """The block width minimises packed bits + exception bits: 120
        three-bit values and 8 forty-bit ones pack at width 3 with 8
        exceptions (7-bit positions + 37-bit excesses), not at width 40."""
        values = np.array([5] * 120 + [2**39] * 8, dtype=np.uint64)
        blob = encode_stream(values, Codec.PFOR)
        assert blob[:3] == bytes([3, 8, 37])
        assert len(blob) == 3 + (8 * (7 + 37) + 128 * 3 + 7) // 8
        assert decode_values(blob, Codec.PFOR, 128).tolist() == values.tolist()

    def test_encoding_is_deterministic(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**20, size=1000).astype(np.uint64)
        assert encode_stream(values) == encode_stream(values.copy())

    def test_self_describing_tag(self):
        ids = np.array([5, 6])
        for codec in Codec:
            blob = compress_ids(ids, codec)
            assert blob[0] == codec.value


class TestCorruptStreams:
    """Corrupt payloads must raise StorageError, never wrap."""

    def test_gap_above_signed_domain_rejected(self):
        """A gap >= 2^63 is a valid 64-bit value but cannot be an id
        gap; the decoder must refuse it rather than emit negative ids
        through the int64 cast."""
        payload = (
            bytes([Codec.RAW.value, 1])
            + encode_varint(3)  # total
            + raw(3)  # the one count
            + raw(1, 2**63 + 5, 2)
        )
        with pytest.raises(StorageError, match="id gap exceeds"):
            decode_one(payload)

    def test_ids_summing_past_the_signed_domain_rejected(self):
        """Every gap in the domain, their running sum not."""
        payload = (
            bytes([Codec.RAW.value, 1])
            + encode_varint(2)
            + raw(2)
            + raw(2**63 - 1, 9)
        )
        with pytest.raises(StorageError, match="id exceeds"):
            decode_one(payload)

    def test_counts_not_matching_the_gaps_rejected(self):
        for counts, match in (((1, 1), "add up"), ((4,), "exceeds the gaps")):
            payload = (
                bytes([Codec.RAW.value, len(counts)])
                + encode_varint(3)
                + raw(*counts)
                + raw(1, 1, 1)
            )
            decoder = StreamDecoder(payload)
            decoder.read_id_lists(payload[0], len(counts), 2)
            with pytest.raises(StorageError, match=match):
                id_lists_from_streams(*decoder.finish())

    @staticmethod
    def _one_block_with_exceptions(*pairs, width=8, excess_width=None):
        """128 width-``width`` gaps (ids ``2, 4, ...``) framed by hand to
        carry ``pairs`` of ``(position, excess)`` exceptions; returns
        ``(ids, blob)`` with ``blob`` a one-list blob."""
        gaps = np.full(128, 2, dtype=np.uint64)
        if excess_width is None:
            excess_width = max([int(e).bit_length() for _p, e in pairs] + [1])
        table = np.array([p for p, _e in pairs] + [e for _p, e in pairs], np.uint64)
        stream = (
            bytes([width])
            + encode_varint(len(pairs))
            + (bytes([excess_width]) if pairs else b"")
            + pack_runs(
                np.concatenate((table, gaps)),
                [len(pairs), len(pairs), 128],
                [7, excess_width, width],
            )
        )
        counts = encode_stream(np.array([128], dtype=np.uint64), Codec.PFOR)
        blob = bytes([Codec.PFOR.value, 1]) + encode_varint(128) + counts + stream
        return np.cumsum(gaps).astype(np.int64), blob

    def test_hand_framed_block_decodes(self):
        ids, blob = self._one_block_with_exceptions((5, 1))
        out, end = decode_one(blob)
        assert end == len(blob)
        assert int(out[5]) - int(ids[5]) == 1 << 8
        assert decode_rr_payload(blob, 1) == [out.tolist()]

    def test_pfor_exception_position_above_signed_domain_rejected(self):
        """An exception count that could only index past the stream (and
        would wrap an int64 if it got that far) is refused up front."""
        _ids, blob = self._one_block_with_exceptions()
        count_at = blob.index(bytes([8, 0]), 4) + 1
        corrupt = blob[:count_at] + encode_varint(2**64 - 1) + blob[count_at + 1 :]
        with pytest.raises(StorageError, match="exception table exceeds"):
            decode_one(corrupt)

    def test_pfor_exception_position_past_the_block_rejected(self):
        """Positions are ``bit_length(m - 1)`` bits wide, so with ``m``
        not a power of two a corrupt one can point past the stream."""
        values = np.array([1] * 99 + [2**30], dtype=np.uint64)
        blob = bytearray(encode_stream(values, Codec.PFOR))
        assert blob[:3] == bytes([1, 1, 30])  # width, one exception, excess width
        assert blob[3] & 0x7F == 99  # its 7-bit position
        blob[3] = (blob[3] & 0x80) | 100
        with pytest.raises(StorageError, match="out of range"):
            decode_values(bytes(blob), Codec.PFOR, 100)

    def test_pfor_corrupt_excess_above_signed_domain_rejected(self):
        """An excess that patches a gap past 2^63 must raise (ids are
        int64; wrap would go negative)."""
        _ids, corrupt = self._one_block_with_exceptions((5, 2 ** (63 - 8)))
        with pytest.raises(StorageError, match="id gap exceeds"):
            decode_one(corrupt)

    def test_pfor_excess_past_64_bits_rejected(self):
        """An excess with more bits than the 64 - width above its block."""
        _ids, corrupt = self._one_block_with_exceptions((5, 2 ** (64 - 8)))
        with pytest.raises(StorageError, match="overflows 64 bits"):
            decode_one(corrupt)
        _ids, corrupt = self._one_block_with_exceptions((5, 1), width=64)
        with pytest.raises(StorageError, match="overflows 64 bits"):
            decode_one(corrupt)

    def test_full_width_block_above_signed_domain_rejected(self):
        """Only a width-64 block can carry a gap >= 2^63 natively."""
        values = np.array([1, 2**63 + 1], dtype=np.uint64)
        stream = bytes([64, 0]) + pack_runs(values, [2], [64])
        counts = encode_stream(np.array([2], dtype=np.uint64), Codec.PFOR)
        payload = bytes([Codec.PFOR.value, 1]) + encode_varint(2) + counts + stream
        with pytest.raises(StorageError, match="id gap exceeds"):
            decode_one(payload)

    def test_pfor_duplicate_exception_positions_or_accumulate(self):
        """Duplicate exception positions (corrupt but decodable) must
        OR-accumulate like the reference's sequential walk."""
        ids, corrupt = self._one_block_with_exceptions((5, 1), (5, 2))
        a = decode_rr_payload(corrupt, 1)[0]
        b, _ = decode_one(corrupt)
        assert a == b.tolist()
        # Both excesses are ORed in: 1|2 = 3 << width.
        assert int(b[5]) - int(ids[5]) == 3 << 8
