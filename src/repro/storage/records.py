"""Record encodings for RR-set collections and inverted lists.

Two record shapes cover both index formats:

* :class:`RRSetsRecord` — an ordered collection of RR sets (each a sorted
  vertex-id array).  Encoded with a fixed header and a *group offset table*
  so a query can load the first ``θ^Q·p_w`` sets with a bounded partial
  read (Algorithm 2 line 4) instead of decoding the whole region.
* :class:`InvertedListsRecord` — an ordered collection of ``key -> sorted
  id list`` entries, used for ``L_w`` (key = vertex), ``IL^p_w`` partitions
  and the ``IP_w`` first-occurrence map.

Id lists are compressed with :mod:`repro.storage.compression`; the codec
is chosen at index-build time (Table 4 compares RAW vs PFOR).
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.compression import (
    BatchIdDecoder,
    Codec,
    compress_ids,
    decompress_ids_batch,
)
from repro.storage.varint import decode_varint, encode_varint

__all__ = ["RRSetsRecord", "InvertedListsRecord"]

_RR_HEADER = struct.Struct("<IIQ")  # n_sets, group_size, payload_len
_INV_HEADER = struct.Struct("<IQ")  # n_lists, payload_len


class RRSetsRecord:
    """Encoder/decoder for ordered RR-set collections with prefix access."""

    DEFAULT_GROUP_SIZE = 64

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    @staticmethod
    def encode(
        rr_sets: Sequence[np.ndarray],
        codec: Codec = Codec.PFOR,
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> bytes:
        """Serialise ``rr_sets`` preserving order.

        Layout: fixed header, ``u64`` byte offset (relative to payload
        start) of each *group* of ``group_size`` sets, then the payload of
        back-to-back compressed id lists.
        """
        if group_size < 1:
            raise StorageError(f"group_size must be >= 1, got {group_size}")
        n_sets = len(rr_sets)
        n_groups = (n_sets + group_size - 1) // group_size

        chunks: List[bytes] = []
        offsets = np.zeros(n_groups, dtype=np.uint64)
        position = 0
        for i, rr in enumerate(rr_sets):
            if i % group_size == 0:
                offsets[i // group_size] = position
            encoded = compress_ids(rr, codec)
            chunks.append(encoded)
            position += len(encoded)
        payload = b"".join(chunks)
        header = _RR_HEADER.pack(n_sets, group_size, len(payload))
        return header + offsets.astype("<u8").tobytes() + payload

    # ------------------------------------------------------------------
    # header introspection (for partial reads)
    # ------------------------------------------------------------------
    HEADER_SIZE = _RR_HEADER.size

    @staticmethod
    def read_header(prefix: bytes) -> Tuple[int, int, int, int]:
        """Parse the fixed header.

        Returns ``(n_sets, group_size, payload_len, payload_start)`` where
        ``payload_start`` is the byte offset of the payload within the
        record (header + offset table).
        """
        if len(prefix) < _RR_HEADER.size:
            raise StorageError("RRSetsRecord header truncated")
        n_sets, group_size, payload_len = _RR_HEADER.unpack_from(prefix, 0)
        n_groups = (n_sets + group_size - 1) // group_size if n_sets else 0
        payload_start = _RR_HEADER.size + 8 * n_groups
        return n_sets, group_size, payload_len, payload_start

    @staticmethod
    def offset_table_range(prefix: bytes) -> Tuple[int, int]:
        """Byte range ``(start, length)`` of the group offset table."""
        n_sets, group_size, _payload_len, _payload_start = RRSetsRecord.read_header(
            prefix
        )
        n_groups = (n_sets + group_size - 1) // group_size if n_sets else 0
        return _RR_HEADER.size, 8 * n_groups

    @staticmethod
    def decode_offsets(table: bytes) -> np.ndarray:
        """Decode the group offset table bytes into ``uint64`` offsets."""
        if len(table) % 8:
            raise StorageError("offset table length must be a multiple of 8")
        return np.frombuffer(table, dtype="<u8").astype(np.int64)

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
        consumes — via the batch decoder, skipping per-set array
        materialisation entirely.  The header walk's varint runs (gap
        streams, PFoR exception pairs) ride the vectorised block varint
        decoder; only the per-list tag/count parse stays scalar.
        """
        set_ptr, set_vertices, _end = decompress_ids_batch(payload, count)
        return set_ptr, set_vertices


class InvertedListsRecord:
    """Encoder/decoder for ordered ``key -> sorted id list`` collections."""

    @staticmethod
    def encode(
        lists: Sequence[Tuple[int, np.ndarray]],
        codec: Codec = Codec.PFOR,
    ) -> bytes:
        """Serialise ``(key, ids)`` entries preserving order.

        Keys are arbitrary non-negative ints (vertex ids); order is
        caller-defined — ``L_w`` stores ascending keys, ``IL_w`` stores
        keys by descending list length (Algorithm 3 line 8).
        """
        chunks: List[bytes] = []
        for key, ids in lists:
            if key < 0:
                raise StorageError(f"keys must be non-negative, got {key}")
            chunks.append(encode_varint(int(key)))
            chunks.append(compress_ids(ids, codec))
        payload = b"".join(chunks)
        header = _INV_HEADER.pack(len(lists), len(payload))
        return header + payload

    @staticmethod
    def decode_csr(record: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a record into ``(keys, ptr, flat_ids)`` CSR arrays.

        ``keys[i]``'s id list is ``flat_ids[ptr[i]:ptr[i+1]]``; the heavy
        per-list numeric work is amortised through the batch decoder.
        """
        if len(record) < _INV_HEADER.size:
            raise StorageError("InvertedListsRecord header truncated")
        n_lists, payload_len = _INV_HEADER.unpack_from(record, 0)
        payload = record[_INV_HEADER.size : _INV_HEADER.size + payload_len]
        if len(payload) != payload_len:
            raise StorageError("InvertedListsRecord payload truncated")
        keys = np.empty(n_lists, dtype=np.int64)
        decoder = BatchIdDecoder(payload)
        pos = 0
        for i in range(n_lists):
            # Inlined single-byte varint fast path: most keys are small
            # vertex ids, and this header walk runs once per list on the
            # hot query path (the list bodies themselves go through the
            # block varint decoder inside ``read_list``).
            if pos < payload_len and payload[pos] < 0x80:
                key = payload[pos]
                pos += 1
            else:
                key, pos = decode_varint(payload, pos)
            keys[i] = key
            pos = decoder.read_list(pos)
        if pos != payload_len:
            raise StorageError("InvertedListsRecord has trailing bytes")
        ptr, flat = decoder.finish()
        return keys, ptr, flat
