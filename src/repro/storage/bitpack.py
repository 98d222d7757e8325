"""Variable-width bit packing over numpy arrays, a whole column at a time.

The PFOR stream codec in :mod:`repro.storage.compression` stores every
value of a stream in the bit width of its 128-value block, and its
exception table in two more fixed-width columns.  This module is the
primitive under it.  Its unit is the *run* — ``count`` values of one
``width`` (0 to 64 bits), back to back, least significant bit first — and
one call covers every run of every stream of a decoding session's records:

* :func:`pack_runs` concatenates runs into one little-endian bitstream;
* :func:`unpack_runs` reads runs that start at arbitrary bit offsets —
  two unaligned 64-bit window gathers, a shift and a mask per value, the
  same two dozen numpy calls whatever the mix of widths and however many
  runs there are;
* :func:`bit_lengths` is the vectorised ``int.bit_length`` the width
  choice histograms.

Both directions work through the runs a bounded number at a time, so the
transient index, window and bit arrays stay a few megabytes however long
a column is.  ``unpack_runs`` trusts its offsets and widths: the stream reader
rejects a payload that ends early, or a width above 64, before anything
is unpacked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import StorageError

__all__ = ["pack_runs", "unpack_runs", "bit_lengths", "MASKS"]

_MAX_WIDTH = 64

#: Runs per vectorised unpacking slice: a block is a run of at most 128
#: values, so unpacking holds a dozen arrays of ~64 K words at a time.
#: Packing slices by values, and holds half a dozen arrays of that many.
_UNPACK_SLICE = 512
_PACK_SLICE = 1 << 16

#: ``MASKS[w]`` keeps the low ``w`` bits; ``_POWERS[b]`` is ``2**b``.
MASKS = np.array([(1 << w) - 1 for w in range(_MAX_WIDTH + 1)], dtype=np.uint64)
_POWERS = np.array([1 << b for b in range(_MAX_WIDTH)], dtype=np.uint64)
_PADDING = bytes(16)


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every ``uint64`` value (``0`` for ``0``)."""
    return np.searchsorted(_POWERS, values, side="right")


def pack_runs(values: np.ndarray, counts: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack ``values`` — run ``i`` is the next ``counts[i]`` of them, each
    in ``widths[i]`` bits — back to back, LSB first.

    ``values`` is a ``uint64`` array of ``sum(counts)`` entries; a width
    must lie in ``[0, 64]`` and a value must fit in its run's width
    (:class:`~repro.errors.StorageError` otherwise).  The result is
    ``ceil(sum(counts * widths) / 8)`` bytes, zero-padded in the last one.
    Values are ORed into little-endian 64-bit words: the values that
    start in one word are adjacent, so one ``reduceat`` merges them, and
    the one value that crosses into the next word adds its high bits.
    """
    counts = np.asarray(counts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    if len(widths) and not 0 <= int(widths.min()) <= int(widths.max()) <= _MAX_WIDTH:
        raise StorageError(f"width must be in [0, {_MAX_WIDTH}]")
    width_of = widths.repeat(counts)
    if np.any(values > MASKS[width_of]):
        raise StorageError("a value does not fit in its bit width")
    ends = np.cumsum(width_of)
    n_bits = int(ends[-1]) if len(ends) else 0
    # One spare word: a width-0 value may start where the bits end.
    words = np.zeros(n_bits // 64 + 2, dtype=np.uint64)
    for lo in range(0, len(width_of), _PACK_SLICE):
        width = width_of[lo : lo + _PACK_SLICE]
        value = values[lo : lo + _PACK_SLICE]
        start = ends[lo : lo + _PACK_SLICE] - width
        word = start >> 6
        start &= 63
        heads = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[heads]] |= np.bitwise_or.reduceat(value << start.view(np.uint64), heads)
        cross = np.flatnonzero(start + width > 64)
        words[word[cross] + 1] |= value[cross] >> (64 - start[cross]).view(np.uint64)
    return words.astype("<u8").tobytes()[: (n_bits + 7) // 8]


def unpack_runs(
    chunks: Sequence[bytes], bit_starts: np.ndarray, counts: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Unpack runs of a bitstream: run ``i`` is ``counts[i]`` values of
    ``widths[i]`` bits starting at bit ``bit_starts[i]``.

    The bitstream is ``chunks`` (bytes-like objects) back to back — the
    records of one decoding session; they are joined here, together with
    the padding, so the input is copied once.  The three others are
    equally long ``int64`` arrays, every run inside the stream and every
    width in ``[0, 64]`` (the caller's guards: this is the hot half, it
    checks nothing).  Returns all runs' values, concatenated, as
    ``uint64``: each one is cut out of the two unaligned 64-bit windows
    that cover it, so no width needs a path of its own.
    """
    # Sixteen zero bytes let the last value's two windows overrun safely.
    padded = b"".join((*chunks, _PADDING))
    windows = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    ends = counts.cumsum()
    first = ends - counts
    # Value j of all runs' values starts at bit j·width + offset of its run.
    offsets = bit_starts - first * widths
    out = np.empty(ends.item(-1) if len(ends) else 0, dtype=np.uint64)
    for run in range(0, len(counts), _UNPACK_SLICE):
        stop = min(run + _UNPACK_SLICE, len(counts))
        lo, hi = first.item(run), ends.item(stop - 1)
        count = counts[run:stop]
        width_of = widths[run:stop].repeat(count)
        start = np.arange(lo, hi)
        start *= width_of
        start += offsets[run:stop].repeat(count)
        byte = start >> 3
        start &= 7
        shift = start.view(np.uint64)
        value = windows.take(byte)
        value >>= shift
        # The high window supplies bits [64 - shift, 64): two shifts,
        # because a shift by 64 (shift == 0) is undefined.
        byte += 8
        high = windows.take(byte)
        high <<= np.uint64(63) - shift
        high <<= np.uint64(1)
        value |= high
        value &= MASKS.take(width_of)
        out[lo:hi] = value
    return out
