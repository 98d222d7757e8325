"""LEB128 unsigned varints.

The byte coding of the index format's scalar header fields: a group
chunk's set count, an id-list set's total and a PFOR stream's exception
count.  Values must be non-negative (the index stores ids, gaps and
counts, never signed values) and must fit in 64 bits.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.errors import CorruptIndexError, StorageError

__all__ = ["decode_varint", "encode_varints"]


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CorruptIndexError("truncated varint")
        byte = data[pos]
        pos += 1
        # The tenth byte sits at shift 63: only its lowest bit fits in 64
        # bits, so any higher value bits mean the encoded value overflows
        # (a corrupt stream must not silently decode to a >64-bit int).
        if shift == 63 and byte & 0x7E:
            raise CorruptIndexError("varint exceeds 64 bits")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptIndexError("varint exceeds 64 bits")


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
