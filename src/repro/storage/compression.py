"""Columnar integer streams and id-list sets: the index format's one codec.

The paper compresses both indexes with FastPFOR (as adopted by Apache
Lucene) and reports ~50% / ~40% space savings on the news / Twitter indexes
with negligible build-time overhead (Table 4).  FastPFOR itself is a SIMD
C++ library; this module substitutes a faithful numpy relative whose unit
is the *stream*: ``m`` non-negative integers (``m`` known from context)
under one of the two codec tags Table 4 compares —

* ``Codec.RAW`` — ``m`` little-endian ``uint64``, the paper's
  "uncompress" index variant;
* ``Codec.PFOR`` — 128-value blocks over the *whole stream*: a ``u8``
  width per block (0 to 64), one exception table (stream positions and the
  bits above the block width, two fixed-width columns) and the blocks'
  values, all in one contiguous bit-packed payload — the Patched
  Frame-of-Reference scheme FastPFOR descends from.  A block's width is
  the bit-cost minimum over 0…64, found for all blocks at once from a
  bit-length histogram.

An *id-list set* — ``n`` sorted id lists, the shape of RR sets and of
inverted lists alike — is two streams: the lists' lengths, and their ids
as gaps (a list's first id, then differences >= 1).  Records
(:mod:`repro.storage.records`) are built from streams and id-list sets and
carry the codec tag, so readers need no out-of-band configuration.

Both directions are columnar sessions whose numpy call count depends on
neither the number of lists nor of records: :class:`StreamEncoder` encodes
every PFOR stream of every record of an index file together, and
:class:`StreamDecoder` bit-unpacks every PFOR stream of every record of a
*load unit* (the two records a cache miss or a partition load reads) in
one pass.  Every structural guard of the format (tag,
truncation, declared sizes against the bytes that remain, width,
exception range, id domain) lives here and nowhere else; the independent
scalar references the fuzz tests compare against are in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import CorruptIndexError, StorageError
from repro.storage.bitpack import MASKS, bit_lengths, pack_runs, unpack_runs
from repro.storage.varint import decode_varint, encode_varints

__all__ = [
    "Codec",
    "StreamEncoder",
    "encode_stream",
    "encode_id_lists",
    "StreamDecoder",
    "id_lists_from_streams",
]

_BLOCK = 128
_ID_MAX = 0x7FFF_FFFF_FFFF_FFFF

#: The widths a PFOR block may take.
_WIDTHS = np.arange(65, dtype=np.int64)


class Codec(enum.Enum):
    """Available stream codecs; values are the on-disk tag bytes.  Tag 1
    stays unused: v2 files of a retired LEB128 codec carry it, and must
    fail as an unknown tag."""

    RAW = 0
    PFOR = 2


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
#: PFOR values per vectorised encoding pass: a :class:`StreamEncoder`
#: encodes its queued streams once this many wait, and a pass takes whole
#: streams up to this many (a longer stream is a pass of its own).  So the
#: raw values a session holds, and a pass's dozen transient arrays, stay
#: a few megabytes however large the index file.
_ENCODE_SLICE = 1 << 18


class StreamEncoder:
    """The encoder of the stream format: one session per index file.

    The mirror of :class:`StreamDecoder`.  :meth:`queue` and
    :meth:`queue_id_lists` check what they are given and queue it — RAW
    streams encode on the spot, PFOR streams wait — and the
    waiting PFOR streams of every record are encoded together, in one
    vectorised pass per ``_ENCODE_SLICE`` values (the benchmark's whole
    index file is one): one bit-length histogram and one width-cost
    matrix over all their 128-value blocks, then a position width and
    an exception table per stream, then one
    :func:`~repro.storage.bitpack.pack_runs` call with each stream
    padded to a byte boundary.  Like decoding, the count of numpy calls
    depends on neither the number of streams nor the number of records,
    so a record (an index file's hundreds of them) is framed from
    :meth:`finish`'s bytes afterwards — see the ``queue_encode`` methods
    of :mod:`repro.storage.records`.
    """

    def __init__(self) -> None:
        # One entry per stream queued: its bytes (b"" while PFOR waits).
        self._encoded: List[bytes] = []
        # Queued PFOR columns: values, their streams' lengths, and where
        # those streams' bytes go in _encoded.
        self._values: List[np.ndarray] = []
        self._lengths: List[np.ndarray] = []
        self._slots: List[np.ndarray] = []
        self._waiting = 0

    def queue(
        self,
        values: np.ndarray,
        codec: Codec = Codec.PFOR,
        lengths: Optional[np.ndarray] = None,
    ) -> int:
        """Queue ``values`` — non-negative integers below 2^64 — as one
        stream, or as ``len(lengths)`` streams of ``lengths[i]`` values
        each (summing to ``len(values)``).  Returns the index the first
        has in :meth:`finish`'s list; the others follow it.  The session
        may hold ``values`` until :meth:`finish`: do not modify it."""
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise StorageError("streams must be one-dimensional")
        if arr.dtype.kind != "u" and arr.size and int(arr.min()) < 0:
            raise StorageError("streams hold non-negative values")
        arr = arr.astype(np.uint64, copy=False)
        if lengths is None:
            lengths = np.array([len(arr)], dtype=np.int64)
        first = len(self._encoded)
        if codec is Codec.PFOR:
            # An empty stream is zero bytes under every codec.
            self._encoded += [b""] * len(lengths)
            self._values.append(arr)
            self._lengths.append(lengths[lengths > 0])
            self._slots.append(first + np.flatnonzero(lengths))
            self._waiting += len(arr)
            if self._waiting >= _ENCODE_SLICE:
                self._encode_waiting()
            return first
        ends = np.cumsum(lengths).tolist()
        for lo, hi in zip([0] + ends, ends):
            self._encoded.append(arr[lo:hi].astype("<u8").tobytes())
        return first

    def queue_id_lists(
        self,
        ptr: np.ndarray,
        ids: np.ndarray,
        codec: Codec = Codec.PFOR,
        bounds: Optional[np.ndarray] = None,
    ) -> Callable[[List[bytes], int], bytes]:
        """Queue the id lists ``ids[ptr[i]:ptr[i+1]]`` as one id-list set,
        or, given ascending ``bounds`` from 0 to the number of lists, as
        one set per ``bounds[j]:bounds[j+1]`` of them.

        Layout of a set: ``total varint | counts stream (n) | gaps stream
        (total)`` with ``n`` known to the reader.  Every list must be
        strictly increasing and non-negative (RR sets and inverted lists
        are maintained sorted); violations raise
        :class:`~repro.errors.StorageError` rather than corrupting gaps.
        A list's first id is stored whole, so the gaps of the lists are
        computed once and each set's streams are slices of them.
        Returns the function that, given :meth:`finish`'s list and ``j``,
        builds the bytes of set ``j``.
        """
        ptr = np.asarray(ptr, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if ptr.ndim != 1 or ids.ndim != 1 or len(ptr) < 1:
            raise StorageError("id lists take a 1-D ptr (length >= 1) and 1-D ids")
        counts = np.diff(ptr)
        if ptr[0] != 0 or ptr[-1] != len(ids) or (len(counts) and counts.min() < 0):
            raise StorageError("ptr must ascend from 0 and end at len(ids)")
        if len(ids) and ids.min() < 0:
            raise StorageError("ids must be non-negative")
        gaps = np.diff(ids, prepend=0)
        firsts = ptr[:-1][counts > 0]
        gaps[firsts] = 1
        if len(gaps) and gaps.min() < 1:
            raise StorageError("id lists must be strictly increasing")
        gaps[firsts] = ids[firsts]
        if bounds is None:
            bounds = np.array([0, len(counts)])
        totals = np.diff(ptr[bounds])
        first_counts = self.queue(counts.view(np.uint64), codec, np.diff(bounds))
        first_gaps = self.queue(gaps.view(np.uint64), codec, totals)
        totals = totals.tolist()

        def id_list_set(streams: List[bytes], j: int) -> bytes:
            return (
                encode_varints([totals[j]])
                + streams[first_counts + j]
                + streams[first_gaps + j]
            )

        return id_list_set

    def finish(self) -> List[bytes]:
        """The bytes of every stream queued, one ``bytes`` each, in order."""
        if self._values:
            self._encode_waiting()
        return self._encoded

    def _encode_waiting(self) -> None:
        """Encode every waiting PFOR stream, in passes of whole streams."""
        values = np.concatenate(self._values)
        lengths = np.concatenate(self._lengths)
        slots = np.concatenate(self._slots).tolist()
        self._values, self._lengths, self._slots, self._waiting = [], [], [], 0
        ends = np.cumsum(lengths)
        starts = (ends - lengths).tolist()
        lo = 0
        while lo < len(starts):
            hi = np.searchsorted(ends, starts[lo] + _ENCODE_SLICE, side="right")
            hi = max(int(hi), lo + 1)
            streams = _encode_pfor(values[starts[lo] : ends[hi - 1]], lengths[lo:hi])
            for slot, stream in zip(slots[lo:hi], streams):
                self._encoded[slot] = stream
            lo = hi


def _encode_pfor(values: np.ndarray, m: np.ndarray) -> List[bytes]:
    """PFOR-encode the streams ``values`` holds back to back, ``m[s]``
    values in stream ``s`` (each at least one): one ``bytes`` each,
    ``widths u8 × n_blocks | n_exceptions varint | [excess_width u8] |
    packed: positions, excesses, values``.

    A block's width minimises its packed bits plus its exceptions' (first
    minimum, integer arithmetic only: builds are byte-identical).  A value
    wider than its block keeps its low bits in place; its stream position
    and the bits above the width go to its stream's exception table, two
    columns of fixed width (positions: the bit length of ``m - 1``;
    excesses: ``excess_width``) packed in front of the values.
    """
    n_streams = len(m)
    value_first = np.cumsum(m) - m
    n_blocks = (m + _BLOCK - 1) // _BLOCK
    block_first = np.cumsum(n_blocks) - n_blocks
    block_len = np.full(int(n_blocks.sum()), _BLOCK, dtype=np.int64)
    block_len[block_first + n_blocks - 1] = m - _BLOCK * (n_blocks - 1)
    position_width = bit_lengths((m - 1).astype(np.uint64))

    # Width cost of every block at every width, from one histogram: w
    # bits per value, plus, per value wider than w, its bits above w and
    # a position.  With above[w] the values wider than w, their bits
    # above w total above[w] + above[w + 1] + ... (a reverse cumsum).
    lengths = bit_lengths(values)
    block_of = np.arange(len(block_len)).repeat(block_len)
    histogram = np.bincount(block_of * 65 + lengths, minlength=len(block_len) * 65)
    at_most = histogram.reshape(-1, 65).cumsum(axis=1)
    above = block_len[:, None] - at_most
    cost = block_len[:, None] * _WIDTHS
    cost += above[:, ::-1].cumsum(axis=1)[:, ::-1]
    cost += position_width.repeat(n_blocks)[:, None] * above
    widths = cost.argmin(axis=1)

    width_of = widths.repeat(block_len)
    exceptions = np.flatnonzero(lengths > width_of)
    stream_of = np.searchsorted(value_first, exceptions, side="right") - 1
    excess = values[exceptions] >> width_of[exceptions].astype(np.uint64)
    n_exceptions = np.bincount(stream_of, minlength=n_streams)
    excess_width = np.zeros(n_streams, dtype=np.int64)
    np.maximum.at(excess_width, stream_of, bit_lengths(excess))

    # Per stream, the runs positions | excesses | blocks | padding to a
    # byte, all packed by one call.
    bits = n_exceptions * (position_width + excess_width)
    bits += np.add.reduceat(block_len * widths, block_first)
    padding = -bits % 8
    n_runs = n_blocks + 3
    run_first = np.cumsum(n_runs) - n_runs
    run_of_block = np.arange(len(block_len))
    run_of_block += (run_first - block_first + 2).repeat(n_blocks)
    counts = np.ones(int(n_runs.sum()), dtype=np.int64)
    run_widths = padding.repeat(n_runs)
    counts[run_first] = counts[run_first + 1] = n_exceptions
    run_widths[run_first], run_widths[run_first + 1] = position_width, excess_width
    counts[run_of_block], run_widths[run_of_block] = block_len, widths
    # Each stream's columns in that order: a value's slot is its place in
    # its stream plus everything the streams before it put down.
    slots = 2 * n_exceptions + m + 1
    slot_first = np.cumsum(slots) - slots
    packed_values = np.zeros(int(counts.sum()), dtype=np.uint64)
    exception_first = np.cumsum(n_exceptions) - n_exceptions
    exception_slot = np.arange(len(exceptions))
    exception_slot += (slot_first - exception_first)[stream_of]
    packed_values[exception_slot] = exceptions - value_first[stream_of]
    packed_values[exception_slot + n_exceptions[stream_of]] = excess
    value_slot = np.arange(len(values))
    value_slot += (slot_first + 2 * n_exceptions - value_first).repeat(m)
    packed_values[value_slot] = values & MASKS[width_of]
    packed = pack_runs(packed_values, counts, run_widths)

    block_bounds = np.append(block_first, len(block_len)).tolist()
    byte_bounds = np.append(0, np.cumsum((bits + padding) // 8)).tolist()
    width_bytes = widths.astype(np.uint8).tobytes()
    headers = zip(n_exceptions.tolist(), excess_width.tolist())
    return [
        width_bytes[block_bounds[s] : block_bounds[s + 1]]
        + encode_varints([n_exc])
        + (bytes([ew]) if n_exc else b"")
        + packed[byte_bounds[s] : byte_bounds[s + 1]]
        for s, (n_exc, ew) in enumerate(headers)
    ]


def encode_stream(values: np.ndarray, codec: Codec = Codec.PFOR) -> bytes:
    """Encode ``m`` non-negative integers (< 2^64); no tag, no length:
    a :class:`StreamEncoder` session of one stream.

    An empty stream is zero bytes under every codec.
    """
    encoder = StreamEncoder()
    index = encoder.queue(values, codec)
    return encoder.finish()[index]


def encode_id_lists(ptr: np.ndarray, ids: np.ndarray, codec: Codec = Codec.PFOR) -> bytes:
    """Encode the id lists ``ids[ptr[i]:ptr[i+1]]`` as one id-list set
    (see :meth:`StreamEncoder.queue_id_lists`): a session of one."""
    encoder = StreamEncoder()
    id_list_set = encoder.queue_id_lists(ptr, ids, codec)
    return id_list_set(encoder.finish(), 0)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
_RAW, _PFOR = (codec.value for codec in Codec)
_NO_VALUES = np.empty(0, dtype=np.uint64)


class StreamDecoder:
    """The decoder of the stream format: one session per *load unit*.

    A load unit is what one cache miss or one partition load decodes —
    usually two records.  :meth:`open` starts the next record; its length
    is the bound every size and truncation guard of the streams read
    from it checks against, so a corrupt header in one record fails on
    that record's own end and never reaches into its neighbour.
    :meth:`read` parses one stream's small header — a RAW stream
    decodes on the spot, a PFOR stream's bit-packed columns
    (exception positions, exception excesses, values) are queued — and
    returns where the stream ends, so a record's streams are read back to
    back.  :meth:`finish` then unpacks every queued column of every
    record opened in one :func:`~repro.storage.bitpack.unpack_runs` call,
    patches all exceptions in one pass, and returns one ``uint64`` array
    per stream read, in order.  A numpy call costs ~0.5µs of fixed
    overhead, ruinous per list when a query decodes hundreds of three-id
    lists and still most of a 1 KB record's decode; here the count
    depends on neither the number of lists nor the number of records.

    A declared size is checked against the bytes that remain *before*
    anything is sized by it: no stream holds more than 128 values per
    byte (a width-0 PFOR block), so a corrupt count cannot allocate more
    than a small multiple of the buffer it arrived in.
    """

    def __init__(self, data: Optional[bytes] = None) -> None:
        # Records opened so far; the open one, its length, and the bytes
        # of those before it (queued bit offsets count from the first).
        self._records: List[bytes] = []
        self._data, self._size, self._base = b"", 0, 0
        # One entry per stream read: its values, or None while queued.
        self._streams: List[np.ndarray] = []
        # Queued bit-packed runs as (start bit, length, width), a list
        # each: the 128-value blocks of every PFOR stream's values ...
        self._starts: List[int] = []
        self._lens: List[int] = []
        self._widths: List[bytes] = []
        # ... and, per exception table, two runs as long as the table:
        # (length, start bit and width of its positions, start bit and
        # width of its excesses, its stream's value count, where the
        # stream's values and blocks start among all queued ones).
        self._tables: List[Tuple[int, ...]] = []
        # Per value column: its index in _streams and value count.
        self._slots: List[Tuple[int, int]] = []
        self._n_values = 0
        if data is not None:
            self.open(data)

    def open(self, data: bytes) -> int:
        """Start the next record; positions passed to :meth:`read` count
        from its first byte.  Returns the index its first stream will have
        in :meth:`finish`'s list."""
        self._base += self._size
        self._records.append(data)
        self._data, self._size = data, len(data)
        return len(self._streams)

    def read(self, tag: int, m: int, pos: int) -> int:
        """Read a stream of ``m`` values under codec ``tag`` at ``pos``."""
        data, size = self._data, self._size
        if tag != _RAW and tag != _PFOR:
            raise CorruptIndexError(f"unknown codec tag {tag}")
        if m > _BLOCK * (size - pos):
            raise CorruptIndexError(
                f"a stream of {m} values cannot fit in the "
                f"{max(size - pos, 0)} bytes that remain"
            )
        if m == 0:
            self._streams.append(_NO_VALUES)
            return pos
        if tag == _RAW:
            if pos + 8 * m > size:
                raise CorruptIndexError("truncated RAW stream")
            self._streams.append(np.frombuffer(data, dtype="<u8", count=m, offset=pos))
            return pos + 8 * m
        n_blocks = (m + _BLOCK - 1) // _BLOCK
        widths = data[pos : pos + n_blocks]
        n_exceptions, pos = decode_varint(data, pos + n_blocks)
        bits = (self._base + pos) * 8
        if n_exceptions:
            if n_exceptions > m or pos >= size:
                raise CorruptIndexError("PFoR exception table exceeds its stream")
            # Two one-run columns ahead of the values, back to back.
            position_width, excess_width = (m - 1).bit_length(), data[pos]
            excess_bits = bits + 8 + n_exceptions * position_width
            self._tables.append(
                (n_exceptions, bits + 8, position_width, excess_bits, excess_width)
                + (m, self._n_values, len(self._lens))
            )
            bits = excess_bits + n_exceptions * excess_width
        # A column is its blocks' bits back to back: a block starts where
        # the one before it ends, and the last holds what is left of m.
        starts = [bits + _BLOCK * ahead for ahead in accumulate(widths, initial=0)]
        last = m - _BLOCK * (n_blocks - 1)
        end = (starts.pop() - (_BLOCK - last) * widths[-1] + 7) // 8 - self._base
        if end > size:
            raise CorruptIndexError("truncated PFoR payload")
        self._slots.append((len(self._streams), m))
        self._streams.append(None)
        self._starts += starts
        self._lens += [_BLOCK] * (n_blocks - 1)
        self._lens.append(last)
        self._widths.append(widths)
        self._n_values += m
        return end

    def read_id_lists(self, tag: int, n: int, pos: int) -> int:
        """Read an id-list set of ``n`` lists: its counts and gaps streams."""
        total, pos = decode_varint(self._data, pos)
        pos = self.read(tag, n, pos)
        return self.read(tag, total, pos)

    def finish(self) -> List[np.ndarray]:
        """The ``uint64`` values of every stream read, one array each."""
        if not self._slots:
            return self._streams
        n_values = self._n_values
        lens, position_starts, position_widths, excess_starts, excess_widths, *patched = (
            [list(column) for column in zip(*self._tables)] or [[]] * 8
        )
        widths = np.frombuffer(
            b"".join(self._widths) + bytes(position_widths) + bytes(excess_widths),
            dtype=np.uint8,
        ).astype(np.int64)
        if widths.max() > 64:
            raise CorruptIndexError(f"bad PFoR width {widths.max()}")
        unpacked = unpack_runs(
            self._records,
            np.array(self._starts + position_starts + excess_starts),
            np.array(self._lens + lens + lens),
            widths,
        )
        if lens:
            excess_first = n_values + sum(lens)
            positions, excess = unpacked[n_values:excess_first], unpacked[excess_first:]
            size, value_first, block_first = (
                np.array(column).repeat(lens) for column in patched
            )
            if (positions >= size.view(np.uint64)).any():
                raise CorruptIndexError("PFoR exception position out of range")
            positions = positions.astype(np.int64)
            width_at = widths.take(block_first + positions // _BLOCK)
            # An excess has the 64 - width bits above its block's width.
            if (excess > MASKS.take(64 - width_at)).any():
                raise CorruptIndexError("PFoR exception overflows 64 bits")
            # (Width 64 admits only a zero excess: shift it by 0.)
            # bitwise_or.at, not fancy |=: duplicate positions (corrupt
            # but decodable) must OR-accumulate like a sequential walk.
            width_at &= 63
            positions += value_first
            np.bitwise_or.at(unpacked, positions, excess << width_at.view(np.uint64))
        lo = 0
        for slot, m in self._slots:
            self._streams[slot] = unpacked[lo : lo + m]
            lo += m
        return self._streams


def id_lists_from_streams(
    counts: np.ndarray, gaps: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Turn an id-list set's decoded streams into CSR ``(ptr, flat_ids)``.

    ``flat_ids[ptr[i]:ptr[i+1]]`` is list ``i`` — already the flat shape
    the coverage engine consumes, so no per-list array is materialised.
    Raises :class:`~repro.errors.CorruptIndexError` when the counts do not
    describe ``gaps`` or an id leaves the signed 64-bit domain (ids are
    ``int64``; a corrupt gap must not wrap negative and flow on).
    """
    total = len(gaps)
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    if len(counts) and counts.max() > total:
        raise CorruptIndexError("an id-list count exceeds the gaps stream")
    lengths = counts.astype(np.int64)
    lengths.cumsum(out=ptr[1:])
    if ptr[-1] != total:
        raise CorruptIndexError("id-list counts do not add up to the gaps stream")
    if total == 0:
        return ptr, np.empty(0, dtype=np.int64)
    if gaps.max() > _ID_MAX:
        raise CorruptIndexError("id gap exceeds the signed 64-bit id domain")
    # Segmented prefix sum: one global cumsum (behind a leading zero),
    # then subtract each list's running base so ids restart at every
    # list boundary.
    running = np.zeros(total + 1, dtype=np.int64)
    flat = running[1:]
    gaps.view(np.int64).cumsum(out=flat)
    flat -= running.take(ptr[:-1]).repeat(lengths)
    # With every gap in the domain, a list's first overflow lands in
    # [2^63, 2^64): negative as int64.
    if flat.min() < 0:
        raise CorruptIndexError("id exceeds the signed 64-bit id domain")
    return ptr, flat
