"""Record encodings for RR-set collections and inverted lists.

Two record shapes cover both index formats, both built from the streams
and id-list sets of :mod:`repro.storage.compression`:

* :class:`RRSetsRecord` — an ordered collection of RR sets (each a sorted
  vertex-id array).  A fixed header, a *group offset table* and a payload
  of self-contained *group chunks*, each the id-list set of ``group_size``
  consecutive sets, so a query can load the first ``θ^Q·p_w`` sets with a
  bounded partial read (Algorithm 2 line 4) instead of decoding the whole
  region.
* :class:`InvertedListsRecord` — an ordered collection of ``key -> sorted
  id list`` entries, used for ``L_w`` (key = vertex), ``IL^p_w`` partitions
  and the ``IP_w`` first-occurrence map: a keys stream plus one id-list
  set.

Encoders take and decoders return flat CSR arrays; the codec is chosen at
index-build time (Table 4 compares RAW vs PFOR) and tagged in the record.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.compression import (
    Codec,
    StreamDecoder,
    encode_id_lists,
    encode_stream,
    id_lists_from_streams,
)
from repro.storage.varint import decode_varint, encode_varints

__all__ = ["RRSetsRecord", "InvertedListsRecord"]

_RR_HEADER = struct.Struct("<IIQ")  # n_sets, group_size, payload_len
_INV_HEADER = struct.Struct("<IQ")  # n_lists, payload_len


class RRSetsRecord:
    """Encoder/decoder for ordered RR-set collections with prefix access."""

    #: Sets per group chunk, chosen from a measurement (CHANGES.md, PR 21):
    #: at ~4.4 bytes per set a chunk is ~1.1 KB, a quarter of the 4 KiB
    #: page a read costs anyway, so a prefix over-reads less than a page;
    #: past 128 the record stops shrinking (< 1 %) and each extra chunk
    #: costs a decode ~9 µs, so smaller groups only buy granularity
    #: nobody reads at.
    DEFAULT_GROUP_SIZE = 256

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    @staticmethod
    def encode(
        ptr: np.ndarray,
        vertices: np.ndarray,
        codec: Codec = Codec.PFOR,
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> bytes:
        """Serialise the RR sets ``vertices[ptr[i]:ptr[i+1]]`` in order.

        Layout: fixed header, ``u64`` byte offset (relative to payload
        start) of each *group* of ``group_size`` sets, then the payload:
        per group ``codec tag u8 | n varint | id-list set of n sets``.
        """
        if group_size < 1:
            raise StorageError(f"group_size must be >= 1, got {group_size}")
        ptr = np.asarray(ptr, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        if ptr.ndim != 1 or len(ptr) < 1 or ptr[-1] != len(vertices):
            raise StorageError("ptr must be 1-D and end at len(vertices)")
        n_sets = len(ptr) - 1
        chunks, offsets, position = [], [], 0
        for lo in range(0, n_sets, group_size):
            hi = min(lo + group_size, n_sets)
            chunk = (
                bytes([codec.value])
                + encode_varints([hi - lo])
                + encode_id_lists(
                    ptr[lo : hi + 1] - ptr[lo], vertices[ptr[lo] : ptr[hi]], codec
                )
            )
            chunks.append(chunk)
            offsets.append(position)
            position += len(chunk)
        header = _RR_HEADER.pack(n_sets, group_size, position)
        return header + np.asarray(offsets, dtype="<u8").tobytes() + b"".join(chunks)

    # ------------------------------------------------------------------
    # header introspection (for partial reads)
    # ------------------------------------------------------------------
    HEADER_SIZE = _RR_HEADER.size

    @staticmethod
    def read_header(prefix: bytes) -> Tuple[int, int, int, int]:
        """Parse the fixed header.

        Returns ``(n_sets, group_size, payload_len, payload_start)`` where
        ``payload_start`` is the byte offset of the payload within the
        record (header + offset table).  Ranged reads skip the segment
        CRC, so the header arrives unverified: a ``group_size`` of zero
        is rejected here, before anything divides by it.
        """
        if len(prefix) < _RR_HEADER.size:
            raise StorageError("RRSetsRecord header truncated")
        n_sets, group_size, payload_len = _RR_HEADER.unpack_from(prefix, 0)
        if group_size < 1:
            raise StorageError("RRSetsRecord group_size must be >= 1")
        n_groups = (n_sets + group_size - 1) // group_size
        payload_start = _RR_HEADER.size + 8 * n_groups
        return n_sets, group_size, payload_len, payload_start

    @staticmethod
    def offset_table_range(prefix: bytes) -> Tuple[int, int]:
        """Byte range ``(start, length)`` of the group offset table."""
        payload_start = RRSetsRecord.read_header(prefix)[3]
        return _RR_HEADER.size, payload_start - _RR_HEADER.size

    @staticmethod
    def decode_offsets(table: bytes) -> np.ndarray:
        """Decode the group offset table bytes into ``int64`` offsets.

        Group chunks are non-empty and the first starts the payload, so
        the table must ascend strictly from zero.
        """
        if len(table) % 8:
            raise StorageError("offset table length must be a multiple of 8")
        offsets = np.frombuffer(table, dtype="<u8").astype(np.int64)
        if len(offsets) and (offsets[0] != 0 or np.any(np.diff(offsets) <= 0)):
            raise StorageError("offset table must ascend from 0")
        return offsets

    @staticmethod
    def prefix_payload_end(
        offsets: np.ndarray, payload_len: int, group_size: int, count: int
    ) -> int:
        """Payload byte length sufficient to decode the first ``count`` sets."""
        if count <= 0:
            return 0
        end_group = (count + group_size - 1) // group_size
        if end_group >= len(offsets):
            return payload_len
        return int(offsets[end_group])

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    @staticmethod
    def decode_prefix_csr(
        payload: bytes, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode the first ``count`` sets straight into flat CSR arrays.

        Returns ``(set_ptr, set_vertices)`` — what the coverage engine
        consumes.  ``payload`` is the payload's first
        :meth:`prefix_payload_end` bytes: the headers of the group chunks
        it holds are parsed one by one, then all their streams are
        unpacked together and clipped to ``count`` sets.
        """
        decoder = StreamDecoder(payload)
        pos = held = 0
        while held < count:
            if pos >= len(payload):
                raise StorageError(
                    f"RR payload ends after {held} of {count} sets"
                )
            n, at = decode_varint(payload, pos + 1)
            pos = decoder.read_id_lists(payload[pos], n, at)
            held += n
        streams = decoder.finish() + [np.empty(0, dtype=np.uint64)] * 2
        set_ptr, set_vertices = id_lists_from_streams(
            np.concatenate(streams[0::2]), np.concatenate(streams[1::2])
        )
        return set_ptr[: count + 1], set_vertices[: set_ptr[count]]


class InvertedListsRecord:
    """Encoder/decoder for ordered ``key -> sorted id list`` collections."""

    @staticmethod
    def encode(
        keys: np.ndarray,
        ptr: np.ndarray,
        ids: np.ndarray,
        codec: Codec = Codec.PFOR,
    ) -> bytes:
        """Serialise the entries ``keys[i] -> ids[ptr[i]:ptr[i+1]]`` in order.

        Keys are arbitrary non-negative ints (vertex ids); order is
        caller-defined — ``L_w`` stores ascending keys, ``IL_w`` stores
        keys by descending list length (Algorithm 3 line 8).  Layout:
        fixed header, then ``codec tag u8 | keys stream | id-list set``;
        the keys stream holds the zig-zag differences of consecutive keys
        (a few bits each when keys ascend, one path when they do not).
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1 or len(keys) != len(ptr) - 1:
            raise StorageError("keys must be 1-D, one per id list")
        if len(keys) and keys.min() < 0:
            raise StorageError(f"keys must be non-negative, got {int(keys.min())}")
        deltas = np.diff(keys, prepend=0)
        zigzag = (deltas << 1) ^ (deltas >> 63)
        payload = (
            bytes([codec.value])
            + encode_stream(zigzag.view(np.uint64), codec)
            + encode_id_lists(ptr, ids, codec)
        )
        return _INV_HEADER.pack(len(keys), len(payload)) + payload

    @staticmethod
    def decode_csr(record: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a record into ``(keys, ptr, flat_ids)`` CSR arrays.

        ``keys[i]``'s id list is ``flat_ids[ptr[i]:ptr[i+1]]``.
        """
        if len(record) < _INV_HEADER.size:
            raise StorageError("InvertedListsRecord header truncated")
        n_lists, payload_len = _INV_HEADER.unpack_from(record, 0)
        payload = record[_INV_HEADER.size : _INV_HEADER.size + payload_len]
        if len(payload) != payload_len:
            raise StorageError("InvertedListsRecord payload truncated")
        if not payload_len:
            raise StorageError("InvertedListsRecord has no codec tag")
        decoder = StreamDecoder(payload)
        pos = decoder.read(payload[0], n_lists, 1)
        pos = decoder.read_id_lists(payload[0], n_lists, pos)
        if pos != payload_len:
            raise StorageError("InvertedListsRecord has trailing bytes")
        zigzag, counts, gaps = decoder.finish()
        deltas = (zigzag >> np.uint64(1)).view(np.int64)
        deltas ^= -(zigzag & np.uint64(1)).view(np.int64)
        keys = np.cumsum(deltas)
        if len(keys) and keys.min() < 0:
            raise StorageError("InvertedListsRecord key outside the id domain")
        return (keys, *id_lists_from_streams(counts, gaps))
