"""LEB128 unsigned varints.

The byte coding of the index format's scalar header fields (a group
chunk's set count, an id-list set's total, a PFOR stream's exception
count) and of ``Codec.VARINT`` streams.  Values must be non-negative
(the index stores ids, gaps and counts, never signed values) and must fit
in 64 bits.

Two decoders cover the two access patterns:

* :func:`decode_varint` / :func:`decode_varints` — the scalar byte-at-a-
  time walk: single header fields, short runs (the block decoder
  delegates below its crossover), and the bit-exact reference the block
  decoder is fuzzed against;
* :func:`decode_varints_block` — one vectorised pass over ``count``
  back-to-back varints: continuation-bit boundaries come from one
  ``flatnonzero`` on the high bit, and values are reconstructed with a
  grouped shift-and-or (one gather + matmul per distinct varint byte
  length, of which there are at most ten).  This is what a VARINT stream
  costs on the query path.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import StorageError

__all__ = [
    "decode_varint",
    "encode_varints",
    "decode_varints",
    "decode_varints_block",
]

#: A 64-bit value spans at most ten LEB128 bytes (9 * 7 + 1 bits).
_MAX_VARINT_BYTES = 10

#: Below this count the scalar walk beats numpy's fixed setup cost (~20us
#: per call vs ~0.2us per scalar-decoded varint, crossover ~110); the
#: block decoder falls back transparently (results are identical).
_BLOCK_MIN_COUNT = 112


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise StorageError("truncated varint")
        byte = data[pos]
        pos += 1
        # The tenth byte sits at shift 63: only its lowest bit fits in 64
        # bits, so any higher value bits mean the encoded value overflows
        # (a corrupt stream must not silently decode to a >64-bit int).
        if shift == 63 and byte & 0x7E:
            raise StorageError("varint exceeds 64 bits")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise StorageError("varint exceeds 64 bits")


def encode_varints(values: Iterable[int]) -> bytes:
    """Encode a sequence of non-negative integers back to back."""
    out = bytearray()
    for value in values:
        if value < 0:
            raise StorageError(f"varints encode non-negative values, got {value}")
        if value >> 64:
            raise StorageError("varint exceeds 64 bits")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def decode_varints(data: bytes, count: int, offset: int = 0) -> Tuple[List[int], int]:
    """Decode exactly ``count`` varints; returns ``(values, next_offset)``."""
    if count < 0:
        raise StorageError(f"count must be >= 0, got {count}")
    values: List[int] = []
    pos = offset
    for _ in range(count):
        value, pos = decode_varint(data, pos)
        values.append(value)
    return values, pos


def decode_varints_block(
    data: bytes, count: int, offset: int = 0
) -> Tuple[np.ndarray, int]:
    """Vectorised drop-in for :func:`decode_varints`.

    One pass finds the terminator bytes (high bit clear) with
    ``flatnonzero``; values are then rebuilt group-by-byte-length with a
    gather + shift-and-or matmul, so the per-varint Python cost is gone
    entirely.  Runs shorter than the scalar/vector crossover (~110
    varints) are delegated to the scalar walk.

    Parameters
    ----------
    data:
        Buffer holding ``count`` back-to-back LEB128 varints (possibly
        followed by unrelated bytes, which are never touched).
    count:
        Exact number of varints to decode (>= 0).
    offset:
        Byte position of the first varint within ``data``.

    Returns
    -------
    ``(values, next_offset)`` — ``values`` a ``uint64`` array of length
    ``count``, bit-identical to the scalar walk (fuzz-tested), and
    ``next_offset`` the position one past the last consumed byte.

    Raises
    ------
    StorageError
        On a negative ``count``, a buffer that truncates mid-stream, or
        a varint exceeding 64 bits (a corrupt 10th byte).
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64), offset
    if count < _BLOCK_MIN_COUNT:
        # Also where a negative count is rejected.
        values, pos = decode_varints(data, count, offset)
        return np.asarray(values, dtype=np.uint64), pos

    buf = np.frombuffer(data, dtype=np.uint8)
    # Bound the terminator scan: count varints span at most count * 10
    # bytes, so a huge trailing payload never inflates the pass.
    limit = min(len(buf) - offset, count * _MAX_VARINT_BYTES)
    chunk = buf[offset : offset + limit]
    ends = np.flatnonzero(chunk < 0x80)[:count]
    found = len(ends)
    starts = np.empty(found, dtype=np.int64)
    if found:
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
    lengths = ends - starts + 1
    # Overflow checks on the varints found so far — the scalar walk hits
    # an over-long varint before any later truncation can be observed.
    max_len = int(lengths.max()) if found else 0
    if max_len > _MAX_VARINT_BYTES:
        raise StorageError("varint exceeds 64 bits")
    if max_len == _MAX_VARINT_BYTES:
        # Shared final-byte check: at shift 63 only bit 0 fits in 64 bits.
        tenth = chunk[ends[lengths == _MAX_VARINT_BYTES]]
        if np.any(tenth & 0x7E):
            raise StorageError("varint exceeds 64 bits")
    if found < count:
        # A run of >= 10 continuation bytes overflows before truncating.
        tail_start = int(ends[-1]) + 1 if found else 0
        if limit - tail_start >= _MAX_VARINT_BYTES:
            raise StorageError("varint exceeds 64 bits")
        raise StorageError("truncated varint")

    payload = (chunk[: int(ends[-1]) + 1] & 0x7F).astype(np.uint64)
    values = np.empty(count, dtype=np.uint64)
    # Grouped shift-and-or: varints of equal byte length form one (n, L)
    # gather whose columns carry weights 2^(7k); at most ten groups exist.
    for length in np.unique(lengths):
        idx = np.flatnonzero(lengths == length)
        gather = starts[idx][:, None] + np.arange(int(length))
        weights = np.uint64(1) << (
            np.uint64(7) * np.arange(int(length), dtype=np.uint64)
        )
        values[idx] = payload[gather] @ weights
    return values, offset + int(ends[-1]) + 1
