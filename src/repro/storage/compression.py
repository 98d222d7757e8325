"""Columnar integer streams and id-list sets: the index format's one codec.

The paper compresses both indexes with FastPFOR (as adopted by Apache
Lucene) and reports ~50% / ~40% space savings on the news / Twitter indexes
with negligible build-time overhead (Table 4).  FastPFOR itself is a SIMD
C++ library; this module substitutes a faithful numpy relative whose unit
is the *stream*: ``m`` non-negative integers (``m`` known from context)
under one codec tag —

* ``Codec.RAW`` — ``m`` little-endian ``uint64``, the paper's
  "uncompress" index variant;
* ``Codec.VARINT`` — ``m`` LEB128 varints;
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

Both directions are columnar: :func:`encode_stream` and
:class:`StreamDecoder` cost a fixed number of numpy calls per stream, and
the decoder bit-unpacks every PFOR stream of every record of a *load
unit* (the two records a cache miss or a partition load reads) in one
pass, however many lists they hold.  Every structural guard of the format (tag,
truncation, declared sizes against the bytes that remain, width,
exception range, id domain) lives here and nowhere else; the independent
scalar reference the fuzz tests compare against is ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.bitpack import MASKS, bit_lengths, pack_runs, unpack_runs
from repro.storage.varint import decode_varint, decode_varints_block, encode_varints

__all__ = [
    "Codec",
    "encode_stream",
    "encode_id_lists",
    "StreamDecoder",
    "id_lists_from_streams",
]

_BLOCK = 128
_ID_MAX = 0x7FFF_FFFF_FFFF_FFFF

#: Width-choice grid: ``_EXCESS_BITS[b, w]`` = bits a value of bit length
#: ``b`` keeps above a block of width ``w`` (positive: it is an exception).
_WIDTHS = np.arange(65, dtype=np.int64)
_EXCESS_BITS = np.maximum(_WIDTHS[:, None] - _WIDTHS, 0)


class Codec(enum.Enum):
    """Available stream codecs; values are the on-disk tag bytes."""

    RAW = 0
    VARINT = 1
    PFOR = 2


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_stream(values: np.ndarray, codec: Codec = Codec.PFOR) -> bytes:
    """Encode ``m`` non-negative integers (< 2^64); no tag, no length.

    An empty stream is zero bytes under every codec.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise StorageError("streams must be one-dimensional")
    if arr.dtype.kind != "u" and arr.size and int(arr.min()) < 0:
        raise StorageError("streams hold non-negative values")
    arr = arr.astype(np.uint64, copy=False)
    if len(arr) == 0:
        return b""
    if codec is Codec.RAW:
        return arr.astype("<u8").tobytes()
    if codec is Codec.VARINT:
        return encode_varints(arr.tolist())
    return _encode_pfor(arr)


def _encode_pfor(values: np.ndarray) -> bytes:
    """``widths u8 × n_blocks | n_exceptions varint | [excess_width u8] |
    packed: positions, excesses, values``.

    The width of a block minimises its packed bits plus its exceptions'
    (first minimum, integer arithmetic only: builds are byte-identical).
    A value wider than its block keeps its low bits in place; its stream
    position and the bits above the width go to the exception table, two
    columns of fixed width (positions: the bit length of ``m - 1``;
    excesses: ``excess_width``) packed in front of the values.
    """
    m = len(values)
    n_blocks = (m + _BLOCK - 1) // _BLOCK
    position_width = (m - 1).bit_length()
    lengths = bit_lengths(values)
    block_of = np.arange(m, dtype=np.int64) // _BLOCK
    histogram = np.bincount(block_of * 65 + lengths, minlength=n_blocks * 65)
    block_len = np.full(n_blocks, _BLOCK, dtype=np.int64)
    block_len[-1] = m - _BLOCK * (n_blocks - 1)
    cost = block_len[:, None] * _WIDTHS
    cost += histogram.reshape(n_blocks, 65) @ (
        _EXCESS_BITS + position_width * (_EXCESS_BITS > 0)
    )
    widths = cost.argmin(axis=1)

    width_of = widths.repeat(block_len)
    positions = np.flatnonzero(lengths > width_of)
    n_exceptions = len(positions)
    excess = values[positions] >> width_of[positions].astype(np.uint64)
    excess_width = int(bit_lengths(excess).max(initial=0))
    return (
        widths.astype(np.uint8).tobytes()
        + encode_varints([n_exceptions])
        + (bytes([excess_width]) if n_exceptions else b"")
        + pack_runs(
            np.concatenate((positions.astype(np.uint64), excess, values & MASKS[width_of])),
            np.concatenate(([n_exceptions, n_exceptions], block_len)),
            np.concatenate(([position_width, excess_width], widths)),
        )
    )


def encode_id_lists(ptr: np.ndarray, ids: np.ndarray, codec: Codec = Codec.PFOR) -> bytes:
    """Encode the id lists ``ids[ptr[i]:ptr[i+1]]`` as an id-list set.

    Layout: ``total varint | counts stream (n) | gaps stream (total)``
    with ``n = len(ptr) - 1`` known to the reader.  Every list must be
    strictly increasing and non-negative (RR sets and inverted lists are
    maintained sorted); violations raise
    :class:`~repro.errors.StorageError` rather than corrupting gaps.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if ptr.ndim != 1 or ids.ndim != 1 or len(ptr) < 1:
        raise StorageError("id lists take a 1-D ptr (length >= 1) and 1-D ids")
    counts = np.diff(ptr)
    if ptr[0] != 0 or ptr[-1] != len(ids) or (len(counts) and counts.min() < 0):
        raise StorageError("ptr must ascend from 0 to len(ids)")
    if len(ids) and ids.min() < 0:
        raise StorageError("ids must be non-negative")
    gaps = np.diff(ids, prepend=0)
    firsts = ptr[:-1][counts > 0]
    gaps[firsts] = 1
    if len(gaps) and gaps.min() < 1:
        raise StorageError("id lists must be strictly increasing")
    gaps[firsts] = ids[firsts]
    return (
        encode_varints([len(ids)])
        + encode_stream(counts.view(np.uint64), codec)
        + encode_stream(gaps.view(np.uint64), codec)
    )


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
_RAW, _VARINT, _PFOR = (codec.value for codec in Codec)
_NO_VALUES = np.empty(0, dtype=np.uint64)


class StreamDecoder:
    """The decoder of the stream format: one session per *load unit*.

    A load unit is what one cache miss or one partition load decodes —
    usually two records.  :meth:`open` starts the next record; its length
    is the bound every size and truncation guard of the streams read
    from it checks against, so a corrupt header in one record fails on
    that record's own end and never reaches into its neighbour.
    :meth:`read` parses one stream's small header — RAW and VARINT
    streams decode on the spot, a PFOR stream's bit-packed columns
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
        if tag > _PFOR:
            raise StorageError(f"unknown codec tag {tag}")
        if m > _BLOCK * (size - pos):
            raise StorageError(
                f"a stream of {m} values cannot fit in the "
                f"{max(size - pos, 0)} bytes that remain"
            )
        if m == 0:
            self._streams.append(_NO_VALUES)
            return pos
        if tag == _RAW:
            if pos + 8 * m > size:
                raise StorageError("truncated RAW stream")
            self._streams.append(np.frombuffer(data, dtype="<u8", count=m, offset=pos))
            return pos + 8 * m
        if tag == _VARINT:
            values, pos = decode_varints_block(data, m, pos)
            self._streams.append(values)
            return pos
        n_blocks = (m + _BLOCK - 1) // _BLOCK
        widths = data[pos : pos + n_blocks]
        n_exceptions, pos = decode_varint(data, pos + n_blocks)
        bits = (self._base + pos) * 8
        if n_exceptions:
            if n_exceptions > m or pos >= size:
                raise StorageError("PFoR exception table exceeds its stream")
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
            raise StorageError("truncated PFoR payload")
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
            raise StorageError(f"bad PFoR width {widths.max()}")
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
                raise StorageError("PFoR exception position out of range")
            positions = positions.astype(np.int64)
            width_at = widths.take(block_first + positions // _BLOCK)
            # An excess has the 64 - width bits above its block's width.
            if (excess > MASKS.take(64 - width_at)).any():
                raise StorageError("PFoR exception overflows 64 bits")
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
    Raises :class:`~repro.errors.StorageError` when the counts do not
    describe ``gaps`` or an id leaves the signed 64-bit domain (ids are
    ``int64``; a corrupt gap must not wrap negative and flow on).
    """
    total = len(gaps)
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    if len(counts) and counts.max() > total:
        raise StorageError("an id-list count exceeds the gaps stream")
    lengths = counts.astype(np.int64)
    lengths.cumsum(out=ptr[1:])
    if ptr[-1] != total:
        raise StorageError("id-list counts do not add up to the gaps stream")
    if total == 0:
        return ptr, np.empty(0, dtype=np.int64)
    if gaps.max() > _ID_MAX:
        raise StorageError("id gap exceeds the signed 64-bit id domain")
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
        raise StorageError("id exceeds the signed 64-bit id domain")
    return ptr, flat
