"""Sorted-id-list compression: delta + varint, and a PFoR-style block codec.

The paper compresses both indexes with FastPFOR (as adopted by Apache
Lucene) and reports ~50% / ~40% space savings on the news / Twitter indexes
with negligible build-time overhead (Table 4).  FastPFOR itself is a SIMD
C++ library; this module substitutes a faithful pure-Python relative:

* ``Codec.VARINT`` — delta-gap + LEB128, the classic inverted-list coding;
* ``Codec.PFOR`` — delta-gap, then blocks of 128 gaps packed at a fixed bit
  width ``b`` chosen to cover ~90% of values, with larger values stored as
  varint *exceptions* (patched on decode) — the Patched Frame-of-Reference
  scheme FastPFOR descends from;
* ``Codec.RAW`` — uncompressed little-endian ``uint32``/``uint64``,
  modelling the paper's "uncompress" index variant.

All codecs are self-describing per list: the first byte tags the codec, so
readers do not need out-of-band configuration.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.bitpack import bits_needed, pack_fixed_width, unpack_width_group
from repro.utils.segments import segmented_arange
from repro.storage.varint import (
    decode_varint,
    decode_varints_block,
    encode_varint,
    encode_varints,
)

__all__ = [
    "Codec",
    "compress_ids",
    "decompress_ids_batch",
    "BatchIdDecoder",
]

_PFOR_BLOCK = 128
_PFOR_COVERAGE = 0.90

# Tag bytes hoisted out of the Enum: read_list touches them per list and
# Enum attribute access costs more than the rest of the header parse.
_RAW_TAG = 0
_VARINT_TAG = 1
_PFOR_TAG = 2

#: Value-bit budget per vectorised unpack batch in BatchIdDecoder.finish;
#: bounds the transient bit/gather/value arrays to tens of MB no matter
#: how large one record's width group is.
_FINISH_BIT_BUDGET = 1 << 22


class Codec(enum.Enum):
    """Available list codecs; values are the on-disk tag bytes."""

    RAW = 0
    VARINT = 1
    PFOR = 2


def compress_ids(ids: np.ndarray, codec: Codec = Codec.PFOR) -> bytes:
    """Compress a strictly-increasing non-negative id array.

    The array *must* be sorted strictly ascending (RR sets and inverted
    lists are maintained sorted); violations raise
    :class:`~repro.errors.StorageError` rather than corrupting gaps.
    """
    arr = np.ascontiguousarray(ids, dtype=np.int64)
    if arr.ndim != 1:
        raise StorageError("id lists must be one-dimensional")
    if len(arr):
        if arr[0] < 0:
            raise StorageError("ids must be non-negative")
        if len(arr) > 1 and not np.all(np.diff(arr) > 0):
            raise StorageError("id lists must be strictly increasing")

    header = bytes([codec.value]) + encode_varint(len(arr))
    if len(arr) == 0:
        return header
    if codec is Codec.RAW:
        return header + arr.astype("<u8").tobytes()
    gaps = np.empty(len(arr), dtype=np.uint64)
    gaps[0] = arr[0]
    if len(arr) > 1:
        gaps[1:] = np.diff(arr).astype(np.uint64)
    if codec is Codec.VARINT:
        return header + encode_varints(gaps.tolist())
    return header + _pfor_encode(gaps)


def _check_id_gaps(gaps: np.ndarray) -> None:
    """Reject decoded ``uint64`` gaps outside the signed id domain.

    Ids are ``int64``, so a gap at or above 2^63 can only come from a
    corrupt stream; it must raise rather than wrap negative through the
    later int64 cast and flow on as silently wrong ids.
    """
    if len(gaps) and int(gaps.max()) > 0x7FFF_FFFF_FFFF_FFFF:
        raise StorageError("id gap exceeds the signed 64-bit id domain")


# ----------------------------------------------------------------------
# PFoR block coding
# ----------------------------------------------------------------------
def _pfor_encode(gaps: np.ndarray) -> bytes:
    """Encode gaps in 128-value patched frame-of-reference blocks.

    Block layout: ``width:uint8 | n_exceptions:varint |
    (position:varint, excess:varint)* | packed payload``; exception values
    store only the *excess* bits above the block width so small overshoots
    stay cheap.  Values inside the block payload are the gaps with
    exception positions masked to their low ``width`` bits.
    """
    out = bytearray()
    for start in range(0, len(gaps), _PFOR_BLOCK):
        block = gaps[start : start + _PFOR_BLOCK]
        width = _choose_width(block)
        limit = np.uint64(1 << width) if width < 64 else np.uint64(2**63)
        mask = np.uint64((1 << width) - 1) if width < 64 else ~np.uint64(0)
        exceptional = block >= limit if width < 64 else np.zeros(len(block), bool)
        positions = np.nonzero(exceptional)[0]
        out.append(width)
        out.extend(encode_varint(len(positions)))
        for p in positions:
            excess = int(block[p] >> np.uint64(width))
            out.extend(encode_varint(int(p)))
            out.extend(encode_varint(excess))
        payload = block & mask
        out.extend(pack_fixed_width(payload, width))
    return bytes(out)


class BatchIdDecoder:
    """The decoder of the id-list format: many concatenated lists at once.

    A numpy call costs ~20µs of fixed overhead — ruinous per list when an
    index query decodes thousands of *tiny* lists.  The decoder therefore
    splits the work into

    1. a light sequential pass (:meth:`read_list`) that only parses the
       self-describing headers and records where each PFoR block's packed
       payload lives, and
    2. one vectorised pass (:meth:`finish`) that bit-unpacks all blocks
       *grouped by width* with a single ``unpackbits`` + gather + matmul
       per distinct width, patches exceptions, and turns gaps into ids
       with one segmented cumsum over the flat array.

    The output is already the flat-CSR shape (``ptr``, ``ids``) the
    coverage engine consumes, so no per-list arrays are materialised at
    all.  Every structural guard of the format (tag, truncation, width,
    exception range, id domain) lives here and nowhere else; the
    independent per-list reference the fuzz tests compare against is
    ``tests/oracles.py``.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._counts: list = []
        # PFoR blocks in parallel lists (turned into arrays in finish()):
        self._block_width: list = []
        self._block_pos: list = []
        self._block_len: list = []
        self._block_dest: list = []
        # Exceptions: (dest position, excess, width)
        self._exceptions: list = []
        # Lists whose gap values are produced eagerly: (dest offset, array)
        self._eager: list = []
        self._dest = 0

    def read_list(self, offset: int) -> int:
        """Parse one list's headers at ``offset``; returns the next offset."""
        data = self._data
        if offset >= len(data):
            raise StorageError("truncated id list: missing codec tag")
        tag = data[offset]
        if tag > _PFOR_TAG:
            raise StorageError(f"unknown codec tag {tag}")
        pos = offset + 1
        # Inlined single-byte varint fast path (lists are usually short).
        if pos < len(data) and data[pos] < 0x80:
            count = data[pos]
            pos += 1
        else:
            count, pos = decode_varint(data, pos)
        self._counts.append(count)
        if count == 0:
            return pos
        if tag == _RAW_TAG:
            nbytes = count * 8
            if pos + nbytes > len(data):
                raise StorageError("truncated RAW id list")
            ids = np.frombuffer(data, dtype="<u8", count=count, offset=pos)
            # Store first-differences so the segmented cumsum in finish()
            # reproduces the absolute ids exactly.
            gaps = np.empty(count, dtype=np.uint64)
            gaps[0] = ids[0]
            if count > 1:
                np.subtract(ids[1:], ids[:-1], out=gaps[1:])
            self._eager.append((self._dest, gaps))
            self._dest += count
            return pos + nbytes
        if tag == _VARINT_TAG:
            gaps, pos = decode_varints_block(data, count, pos)
            _check_id_gaps(gaps)
            self._eager.append((self._dest, gaps))
            self._dest += count
            return pos
        filled = 0
        while filled < count:
            block_len = min(_PFOR_BLOCK, count - filled)
            if pos >= len(data):
                raise StorageError("truncated PFoR block header")
            width = data[pos]
            pos += 1
            if not 1 <= width <= 64:
                raise StorageError(f"bad PFoR width {width}")
            if pos < len(data) and data[pos] < 0x80:
                n_exceptions = data[pos]
                pos += 1
            else:
                n_exceptions, pos = decode_varint(data, pos)
            if n_exceptions:
                pairs, pos = decode_varints_block(data, 2 * n_exceptions, pos)
                base_dest = self._dest + filled
                for p, excess in zip(
                    pairs[0::2].tolist(), pairs[1::2].tolist()
                ):
                    if p >= block_len:
                        raise StorageError(
                            "PFoR exception position out of range"
                        )
                    self._exceptions.append((base_dest + p, excess, width))
            payload_bytes = (width * block_len + 7) // 8
            if pos + payload_bytes > len(data):
                raise StorageError("truncated PFoR payload")
            self._block_width.append(width)
            self._block_pos.append(pos)
            self._block_len.append(block_len)
            self._block_dest.append(self._dest + filled)
            pos += payload_bytes
            filled += block_len
        self._dest += count
        return pos

    def finish(self) -> Tuple[np.ndarray, np.ndarray]:
        """Decode everything read so far into ``(ptr, flat_ids)``."""
        counts = np.asarray(self._counts, dtype=np.int64)
        ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        total = self._dest
        gaps = np.empty(total, dtype=np.uint64)

        # One vectorised unpack per distinct PFoR width, in batches
        # bounded by _FINISH_BIT_BUDGET so the transient bit/gather/value
        # arrays stay small no matter how large the record is.
        if self._block_width:
            widths = np.asarray(self._block_width, dtype=np.int64)
            positions = np.asarray(self._block_pos, dtype=np.int64)
            block_lens = np.asarray(self._block_len, dtype=np.int64)
            dests = np.asarray(self._block_dest, dtype=np.int64)
            order = np.argsort(widths, kind="stable")
            widths = widths[order]
            group_bounds = np.flatnonzero(np.diff(widths)) + 1
            group_starts = np.concatenate(([0], group_bounds, [len(widths)]))
            for g in range(len(group_starts) - 1):
                lo, hi = int(group_starts[g]), int(group_starts[g + 1])
                self._unpack_width_group(
                    int(widths[lo]),
                    positions[order[lo:hi]],
                    block_lens[order[lo:hi]],
                    dests[order[lo:hi]],
                    gaps,
                )

        for dest, eager in self._eager:
            gaps[dest : dest + len(eager)] = eager
        for dest, excess, width in self._exceptions:
            gaps[dest] |= np.uint64(excess) << np.uint64(width)
        if self._exceptions:
            # An excess-patched value can escape the signed id domain.  (The
            # width-group unpack checks its own width-64 blocks; RAW
            # first-differences intentionally stay unchecked — their
            # wraparound is what reproduces absolute ids exactly.)
            _check_id_gaps(
                gaps[np.fromiter(
                    (dest for dest, _e, _w in self._exceptions),
                    dtype=np.int64,
                    count=len(self._exceptions),
                )]
            )

        # Segmented prefix sum: one global cumsum, then subtract each
        # list's running base so ids restart at every list boundary.
        flat = np.cumsum(gaps.astype(np.int64))
        if total:
            bases = np.where(
                ptr[:-1] > 0, flat[np.maximum(ptr[:-1], 1) - 1], 0
            )
            flat -= bases.repeat(counts)
        return ptr, flat

    def _unpack_width_group(
        self,
        width: int,
        positions: np.ndarray,
        value_counts: np.ndarray,
        dests: np.ndarray,
        gaps: np.ndarray,
    ) -> None:
        """Bit-unpack all blocks of one width into ``gaps``, batched."""
        data = self._data
        byte_lens = (width * value_counts + 7) // 8
        cum_bits = np.cumsum(value_counts * width)
        pos_list = positions.tolist()
        byte_list = byte_lens.tolist()
        start = 0
        n = len(positions)
        while start < n:
            base = int(cum_bits[start - 1]) if start else 0
            stop = int(
                np.searchsorted(cum_bits, base + _FINISH_BIT_BUDGET, "right")
            )
            stop = max(start + 1, min(stop, n))
            counts_chunk = value_counts[start:stop]
            bytes_chunk = byte_lens[start:stop]
            packed = np.frombuffer(
                b"".join(
                    data[p : p + byte_list[start + i]]
                    for i, p in enumerate(pos_list[start:stop])
                ),
                dtype=np.uint8,
            )
            # Each block's values start at its byte-aligned offset.
            byte_starts = np.empty(stop - start, dtype=np.int64)
            byte_starts[0] = 0
            np.cumsum(bytes_chunk[:-1], out=byte_starts[1:])
            values = unpack_width_group(packed, byte_starts, counts_chunk, width)
            if width == 64:
                # Only full-width blocks can natively encode a gap
                # outside the signed id domain.
                _check_id_gaps(values)
            gaps[segmented_arange(dests[start:stop], counts_chunk)] = values
            start = stop


def decompress_ids_batch(
    data: bytes, n_lists: int, offset: int = 0
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Decode ``n_lists`` back-to-back lists into ``(ptr, flat_ids, end)``."""
    decoder = BatchIdDecoder(data)
    pos = offset
    for _ in range(n_lists):
        pos = decoder.read_list(pos)
    ptr, flat = decoder.finish()
    return ptr, flat, pos


def _choose_width(block: np.ndarray) -> int:
    """Width covering ``_PFOR_COVERAGE`` of values, capped by the max width.

    Choosing the 90th-percentile width is the PFoR heuristic: most values
    pack tightly while rare large gaps become exceptions.
    """
    full_width = bits_needed(block)
    if len(block) < 4:
        return full_width
    quantile_value = int(np.quantile(block.astype(np.float64), _PFOR_COVERAGE))
    candidate = max(1, int(quantile_value).bit_length())
    return min(full_width, max(candidate, 1))
