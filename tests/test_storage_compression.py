"""Tests for the id-list codecs (repro.storage.compression)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.compression import Codec, compress_ids, decompress_ids_batch
from repro.storage.varint import encode_varint, encode_varints

sorted_ids = st.lists(
    st.integers(0, 2**40), min_size=0, max_size=400, unique=True
).map(sorted).map(lambda xs: np.asarray(xs, dtype=np.int64))


def decode_one(blob, offset=0):
    """One list through the decoder that serves queries: ``(ids, end)``."""
    ptr, flat, end = decompress_ids_batch(blob, 1, offset)
    assert ptr.tolist() == [0, len(flat)]
    return flat, end


class TestRoundtrips:
    @pytest.mark.parametrize("codec", list(Codec))
    def test_simple(self, codec):
        ids = np.array([0, 3, 7, 100, 10_000], dtype=np.int64)
        out, offset = decode_one(compress_ids(ids, codec))
        assert np.array_equal(out, ids)

    @pytest.mark.parametrize("codec", list(Codec))
    def test_empty(self, codec):
        out, _ = decode_one(compress_ids(np.array([], dtype=np.int64), codec))
        assert len(out) == 0

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

    @settings(max_examples=80, deadline=None)
    @given(sorted_ids, st.sampled_from(list(Codec)))
    def test_roundtrip_property(self, ids, codec):
        out, offset = decode_one(compress_ids(ids, codec))
        assert np.array_equal(out, ids)


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

    def test_two_dimensional_rejected(self):
        with pytest.raises(StorageError):
            compress_ids(np.array([[1, 2]]))

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError, match="unknown codec tag 238"):
            decode_one(b"\xee\x01\x00")

    def test_truncated_raw_rejected(self):
        blob = compress_ids(np.array([1, 2, 3]), Codec.RAW)
        with pytest.raises(StorageError, match="truncated RAW id list"):
            decode_one(blob[:-4])

    def test_truncated_pfor_rejected(self):
        """A PFoR list cut inside a block's packed payload, and one cut
        exactly between two blocks (so the next block has no header)."""
        blob = compress_ids(np.arange(0, 600, 2), Codec.PFOR)  # 3 blocks
        with pytest.raises(StorageError, match="truncated PFoR payload"):
            decode_one(blob[: len(blob) // 2])
        header = 1 + len(encode_varint(300))
        width = blob[header]
        assert blob[header + 1] == 0  # first block: no exceptions
        first_block_end = header + 2 + (width * 128 + 7) // 8
        with pytest.raises(StorageError, match="truncated PFoR block header"):
            decode_one(blob[:first_block_end])

    @pytest.mark.parametrize("width", [0, 65])
    def test_bad_pfor_width_rejected(self, width):
        blob = bytearray(compress_ids(np.arange(0, 40, 2), Codec.PFOR))
        blob[1 + len(encode_varint(20))] = width
        with pytest.raises(StorageError, match=f"bad PFoR width {width}"):
            decode_one(bytes(blob))

    def test_empty_input_rejected(self):
        with pytest.raises(StorageError, match="missing codec tag"):
            decode_one(b"")

    def test_more_lists_than_the_buffer_holds_rejected(self):
        blob = compress_ids(np.array([1, 2]), Codec.VARINT)
        with pytest.raises(StorageError, match="missing codec tag"):
            decompress_ids_batch(blob, 2)


class TestCompressionBehaviour:
    """Table 4's premise: the codecs actually shrink sorted id lists."""

    def test_pfor_beats_raw_on_dense_lists(self):
        ids = np.arange(0, 5000, 3, dtype=np.int64)
        raw = compress_ids(ids, Codec.RAW)
        pfor = compress_ids(ids, Codec.PFOR)
        assert len(pfor) < len(raw) / 4

    def test_varint_beats_raw_on_small_gaps(self):
        ids = np.cumsum(np.ones(1000, dtype=np.int64))
        raw = compress_ids(ids, Codec.RAW)
        var = compress_ids(ids, Codec.VARINT)
        assert len(var) < len(raw) / 4

    def test_pfor_handles_outlier_gaps(self):
        # Mostly gap-1 values with one huge jump: the exception path.
        ids = np.concatenate(
            [np.arange(200), np.arange(2**33, 2**33 + 200)]
        ).astype(np.int64)
        blob = compress_ids(ids, Codec.PFOR)
        out, _ = decode_one(blob)
        assert np.array_equal(out, ids)

    def test_pfor_block_boundary_sizes(self):
        # Exercise lengths around the 128-value block boundary.
        for n in (127, 128, 129, 255, 256, 257):
            ids = np.arange(n, dtype=np.int64) * 2
            out, _ = decode_one(compress_ids(ids, Codec.PFOR))
            assert np.array_equal(out, ids), n

    def test_self_describing_tag(self):
        ids = np.array([5, 6])
        for codec in Codec:
            blob = compress_ids(ids, codec)
            assert blob[0] == codec.value


class TestCorruptStreams:
    """Corrupt varint payloads must raise StorageError, never wrap."""

    def test_varint_gap_above_signed_domain_rejected(self):
        """A gap >= 2^63 is a valid 64-bit varint but cannot be an id
        gap; the decoder must refuse it rather than emit negative ids
        through the int64 cast."""
        payload = (
            bytes([Codec.VARINT.value])
            + encode_varint(3)
            + encode_varints([1, 2**63 + 5, 2])
        )
        with pytest.raises(StorageError, match="id domain"):
            decode_one(payload)

    @staticmethod
    def _one_block_with_exceptions(*pairs):
        """A clean 128-id PFoR list re-framed to carry ``pairs`` of
        ``(position, excess)`` exceptions; returns ``(ids, width, blob)``."""
        ids = np.arange(128, dtype=np.int64) * 2
        blob = compress_ids(ids, Codec.PFOR)
        # tag, count varint, then width byte + n_exceptions varint.
        header = 1 + len(encode_varint(128))
        assert blob[header + 1] == 0  # the clean encoding has none
        corrupt = (
            blob[: header + 1]
            + encode_varint(len(pairs))
            + b"".join(encode_varint(p) + encode_varint(e) for p, e in pairs)
            + blob[header + 2 :]  # original packed payload
        )
        return ids, int(blob[header]), corrupt

    def test_pfor_exception_position_above_signed_domain_rejected(self):
        """An exception position of 2^64-1 must not wrap to -1 through
        an int64 cast and silently patch the last block value."""
        _ids, _width, corrupt = self._one_block_with_exceptions((2**64 - 1, 1))
        with pytest.raises(StorageError, match="out of range"):
            decode_one(corrupt)

    def test_pfor_exception_position_past_the_block_rejected(self):
        _ids, _width, corrupt = self._one_block_with_exceptions((128, 1))
        with pytest.raises(StorageError, match="out of range"):
            decode_one(corrupt)

    def test_pfor_corrupt_excess_above_signed_domain_rejected(self):
        """An excess that patches a block value past 2^63 must raise
        (ids are int64; wrap would go negative)."""
        _ids, width, _ = self._one_block_with_exceptions()
        _ids, _width, corrupt = self._one_block_with_exceptions(
            (5, 2 ** (63 - width) + 1)
        )
        with pytest.raises(StorageError, match="id domain"):
            decode_one(corrupt)

    def test_full_width_block_above_signed_domain_rejected(self):
        """Only a width-64 block can carry a gap >= 2^63 natively."""
        from repro.storage.bitpack import pack_fixed_width

        payload = (
            bytes([Codec.PFOR.value])
            + encode_varint(2)
            + bytes([64, 0])
            + pack_fixed_width(np.array([1, 2**63 + 1], dtype=np.uint64), 64)
        )
        with pytest.raises(StorageError, match="id domain"):
            decode_one(payload)

    def test_pfor_duplicate_exception_positions_or_accumulate(self):
        """Duplicate exception positions (corrupt but decodable) must
        OR-accumulate like the reference's sequential walk."""
        from oracles import decompress_ids

        ids, width, corrupt = self._one_block_with_exceptions((5, 1), (5, 2))
        a, _ = decompress_ids(corrupt)
        b, _ = decode_one(corrupt)
        assert np.array_equal(a, b)
        # Both excesses are ORed in: 1|2 = 3 << width.
        assert int(b[5]) - int(ids[5]) == 3 << width
