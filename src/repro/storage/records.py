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
  id list`` entries, used for ``L_w`` (key = vertex), the ``IR^p_w`` and
  ``IL^p_w`` partitions and the ``IP_w`` first-occurrence map: a keys
  stream plus one id-list set.  An IRR segment frames several of them
  back to back; :meth:`InvertedListsRecord.split` cuts them apart.

Encoders take and decoders return flat CSR arrays; the codec is chosen at
index-build time (Table 4 compares RAW vs PFOR) and tagged in the record.
An encoder's bad argument is a :class:`~repro.errors.StorageError`; a
decoder's malformed input is a :class:`~repro.errors.CorruptIndexError`
(its subclass), as a bad checksum is.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Tuple

import numpy as np

from repro.errors import CorruptIndexError, StorageError
from repro.storage.compression import (
    Codec,
    StreamDecoder,
    StreamEncoder,
    id_lists_from_streams,
)
from repro.storage.varint import decode_varint, encode_varints

__all__ = ["RRSetsRecord", "InvertedListsRecord"]

#: What queueing a record into a :class:`StreamDecoder` returns: called
#: with the session's ``finish()`` it builds the record's CSR arrays.
Take = Callable[[List[np.ndarray]], Tuple[np.ndarray, ...]]

#: What queueing a record into a :class:`StreamEncoder` returns: called
#: with the session's ``finish()`` it frames the record's bytes.
Frame = Callable[[List[bytes]], bytes]

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
    def queue_encode(
        encoder: StreamEncoder,
        ptr: np.ndarray,
        vertices: np.ndarray,
        codec: Codec = Codec.PFOR,
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> Frame:
        """Queue the RR sets ``vertices[ptr[i]:ptr[i+1]]``, in order, as
        the next record of ``encoder``.

        Layout: fixed header, ``u64`` byte offset (relative to payload
        start) of each *group* of ``group_size`` sets, then the payload:
        per group ``codec tag u8 | n varint | id-list set of n sets``.
        Returns the function that, given ``encoder.finish()``, frames the
        record's bytes.
        """
        if group_size < 1:
            raise StorageError(f"group_size must be >= 1, got {group_size}")
        n_sets = np.size(ptr) - 1
        bounds = np.append(np.arange(0, n_sets, group_size), n_sets)
        id_list_set = encoder.queue_id_lists(ptr, vertices, codec, bounds)

        def frame(streams: List[bytes]) -> bytes:
            chunks = [
                bytes([codec.value])
                + encode_varints([min(group_size, n_sets - lo)])
                + id_list_set(streams, j)
                for j, lo in enumerate(range(0, n_sets, group_size))
            ]
            sizes = np.array([len(chunk) for chunk in chunks], dtype=np.int64)
            offsets = (np.cumsum(sizes) - sizes).astype("<u8")
            header = _RR_HEADER.pack(n_sets, group_size, int(sizes.sum()))
            return header + offsets.tobytes() + b"".join(chunks)

        return frame

    @staticmethod
    def encode(
        ptr: np.ndarray,
        vertices: np.ndarray,
        codec: Codec = Codec.PFOR,
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> bytes:
        """Serialise the RR sets ``vertices[ptr[i]:ptr[i+1]]`` in order:
        :meth:`queue_encode` in a session of its own."""
        encoder = StreamEncoder()
        frame = RRSetsRecord.queue_encode(encoder, ptr, vertices, codec, group_size)
        return frame(encoder.finish())

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
            raise CorruptIndexError("RRSetsRecord header truncated")
        n_sets, group_size, payload_len = _RR_HEADER.unpack_from(prefix, 0)
        if group_size < 1:
            raise CorruptIndexError("RRSetsRecord group_size must be >= 1")
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
            raise CorruptIndexError("offset table length must be a multiple of 8")
        offsets = np.frombuffer(table, dtype="<u8").astype(np.int64)
        if len(offsets) and (offsets[0] != 0 or np.any(np.diff(offsets) <= 0)):
            raise CorruptIndexError("offset table must ascend from 0")
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
    def queue_prefix(decoder: StreamDecoder, payload: bytes, count: int) -> Take:
        """Queue the first ``count`` sets as the next record of ``decoder``.

        ``payload`` is the payload's first :meth:`prefix_payload_end`
        bytes: the headers of the group chunks it holds are parsed one by
        one, against its own end.  Returns the function that, given
        ``decoder.finish()``, builds ``(set_ptr, set_vertices)`` — what
        the coverage engine consumes — clipped to ``count`` sets.
        """
        first = last = decoder.open(payload)
        pos = held = 0
        while held < count:
            if pos >= len(payload):
                raise CorruptIndexError(
                    f"RR payload ends after {held} of {count} sets"
                )
            n, at = decode_varint(payload, pos + 1)
            pos = decoder.read_id_lists(payload[pos], n, at)
            held += n
            last += 2

        def take(streams: List[np.ndarray]) -> Tuple[np.ndarray, ...]:
            mine = streams[first:last] + [np.empty(0, dtype=np.uint64)] * 2
            set_ptr, set_vertices = id_lists_from_streams(
                np.concatenate(mine[0::2]), np.concatenate(mine[1::2])
            )
            return set_ptr[: count + 1], set_vertices[: set_ptr[count]]

        return take

    @staticmethod
    def decode_prefix_csr(
        payload: bytes, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode the first ``count`` sets straight into flat CSR arrays:
        :meth:`queue_prefix` in a session of its own."""
        decoder = StreamDecoder()
        return RRSetsRecord.queue_prefix(decoder, payload, count)(decoder.finish())


class InvertedListsRecord:
    """Encoder/decoder for ordered ``key -> sorted id list`` collections."""

    @staticmethod
    def queue_encode(
        encoder: StreamEncoder,
        keys: np.ndarray,
        ptr: np.ndarray,
        ids: np.ndarray,
        codec: Codec = Codec.PFOR,
    ) -> Frame:
        """Queue the entries ``keys[i] -> ids[ptr[i]:ptr[i+1]]``, in order,
        as the next record of ``encoder``: :meth:`queue_encode_partitions`
        with one partition."""
        bounds = np.array([0, np.size(keys)])
        return InvertedListsRecord.queue_encode_partitions(
            encoder, keys, ptr, ids, bounds, codec
        )[0]

    @staticmethod
    def queue_encode_partitions(
        encoder: StreamEncoder,
        keys: np.ndarray,
        ptr: np.ndarray,
        ids: np.ndarray,
        bounds: np.ndarray,
        codec: Codec = Codec.PFOR,
    ) -> List[Frame]:
        """Queue the entries ``keys[i] -> ids[ptr[i]:ptr[i+1]]`` as
        consecutive records of ``encoder``, record ``r`` holding entries
        ``bounds[r]:bounds[r+1]`` (ascending from 0 to ``len(keys)``): the
        IRR writer's partitions of one keyword, queued at once.

        Keys are arbitrary non-negative ints (vertex ids); order is
        caller-defined — ``L_w`` stores ascending keys, ``IL_w`` stores
        keys by descending list length (Algorithm 3 line 8).  Layout:
        fixed header, then ``codec tag u8 | keys stream | id-list set``;
        the keys stream holds the zig-zag differences of consecutive keys
        (a few bits each when keys ascend, one path when they do not).
        Returns one function per record that, given ``encoder.finish()``,
        frames its bytes.
        """
        keys = np.asarray(keys, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        if keys.ndim != 1 or len(keys) != len(ptr) - 1:
            raise StorageError("keys must be 1-D, one per id list")
        if len(keys) and keys.min() < 0:
            raise StorageError(f"keys must be non-negative, got {int(keys.min())}")
        # Zig-zag key deltas, restarting from 0 at each record's first key.
        deltas = np.diff(keys, prepend=0)
        heads = bounds[:-1][np.diff(bounds) > 0]
        deltas[heads] = keys[heads]
        zigzag = (deltas << 1) ^ (deltas >> 63)
        first = encoder.queue(zigzag.view(np.uint64), codec, np.diff(bounds))
        id_list_set = encoder.queue_id_lists(ptr, ids, codec, bounds)
        n_lists = np.diff(bounds).tolist()

        def frame(r: int) -> Frame:
            def framed(streams: List[bytes]) -> bytes:
                payload = (
                    bytes([codec.value]) + streams[first + r] + id_list_set(streams, r)
                )
                return _INV_HEADER.pack(n_lists[r], len(payload)) + payload

            return framed

        return [frame(r) for r in range(len(n_lists))]

    @staticmethod
    def encode(
        keys: np.ndarray,
        ptr: np.ndarray,
        ids: np.ndarray,
        codec: Codec = Codec.PFOR,
    ) -> bytes:
        """Serialise the entries ``keys[i] -> ids[ptr[i]:ptr[i+1]]`` in
        order: :meth:`queue_encode` in a session of its own."""
        encoder = StreamEncoder()
        frame = InvertedListsRecord.queue_encode(encoder, keys, ptr, ids, codec)
        return frame(encoder.finish())

    @staticmethod
    def split(segment: bytes, count: int) -> List[bytes]:
        """The ``count`` records framed back to back in ``segment``, as
        slices of it, each as long as its header says.

        The records must fill the segment exactly: a header cut short, a
        payload running past the segment's end, or a byte left after the
        last record raises :class:`~repro.errors.CorruptIndexError`.
        """
        ends = [0]
        for _ in range(count):
            if len(segment) - ends[-1] < _INV_HEADER.size:
                raise CorruptIndexError("InvertedListsRecord header truncated")
            _n_lists, payload_len = _INV_HEADER.unpack_from(segment, ends[-1])
            ends.append(ends[-1] + _INV_HEADER.size + payload_len)
            if ends[-1] > len(segment):
                over = ends[-1] - len(segment)
                raise CorruptIndexError(f"InvertedListsRecord overruns by {over} bytes")
        if ends[-1] != len(segment):
            left = len(segment) - ends[-1]
            raise CorruptIndexError(f"{left} trailing bytes after {count} records")
        return [segment[start:end] for start, end in zip(ends, ends[1:])]

    @staticmethod
    def queue(decoder: StreamDecoder, record: bytes) -> Take:
        """Queue ``record`` as the next record of ``decoder``.

        The record must be exactly as long as its header says: in a
        session its end is the bound of its streams, and whatever follows
        belongs to the next record.  Returns the function that, given
        ``decoder.finish()``, builds ``(keys, ptr, flat_ids)``:
        ``keys[i]``'s id list is ``flat_ids[ptr[i]:ptr[i+1]]``.
        """
        if len(record) < _INV_HEADER.size:
            raise CorruptIndexError("InvertedListsRecord header truncated")
        n_lists, payload_len = _INV_HEADER.unpack_from(record, 0)
        held = len(record) - _INV_HEADER.size
        if held != payload_len:
            raise CorruptIndexError(
                f"InvertedListsRecord payload {'truncated' if held < payload_len else 'overrun'}"
                f": {held} bytes, the header says {payload_len}"
            )
        if not payload_len:
            raise CorruptIndexError("InvertedListsRecord has no codec tag")
        first = decoder.open(record)
        tag = record[_INV_HEADER.size]
        pos = decoder.read(tag, n_lists, _INV_HEADER.size + 1)
        pos = decoder.read_id_lists(tag, n_lists, pos)
        if pos != len(record):
            raise CorruptIndexError("InvertedListsRecord has trailing bytes")

        def take(streams: List[np.ndarray]) -> Tuple[np.ndarray, ...]:
            zigzag, counts, gaps = streams[first : first + 3]
            deltas = (zigzag >> np.uint64(1)).view(np.int64)
            deltas ^= -(zigzag & np.uint64(1)).view(np.int64)
            keys = deltas.cumsum()
            if len(keys) and keys.min() < 0:
                raise CorruptIndexError("InvertedListsRecord key outside the id domain")
            return (keys, *id_lists_from_streams(counts, gaps))

        return take

    @staticmethod
    def decode_csr(record: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a record into ``(keys, ptr, flat_ids)`` CSR arrays:
        :meth:`queue` in a session of its own."""
        decoder = StreamDecoder()
        return InvertedListsRecord.queue(decoder, record)(decoder.finish())
