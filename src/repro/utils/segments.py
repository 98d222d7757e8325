"""Segmented-array kernels shared by the flat-CSR fast paths.

The recurring primitive of the vectorised pipeline: given per-segment
``starts`` and ``lengths``, produce the concatenated index array
``[starts[0], .., starts[0]+lengths[0]-1, starts[1], ...]`` without a
Python loop.  Implemented as one ``arange`` over the total plus a
per-element repeated shift: three array passes (cumsum, arange, shift).

:func:`csr_from_pairs` is the one ``(row, col)`` pairs → CSR sort: the
graph's two adjacency directions and the profile store's two indexes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segmented_arange", "take_rows", "csr_from_pairs"]


def segmented_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+length)`` for every segment.

    ``lengths`` may contain zeros (those segments contribute nothing).
    Both inputs must be integer arrays of equal length >= 1.  The
    gather behind the kernels' frontier expansion, :func:`take_rows`,
    the IRR cover step and every greedy pick, so it stays at the
    minimum of array ops.
    """
    ends = lengths.cumsum()
    index = np.arange(ends.item(-1))
    index += (starts - (ends - lengths)).repeat(lengths)
    return index


def take_rows(ptr: np.ndarray, flat: np.ndarray, rows: np.ndarray):
    """Rows ``rows`` of the CSR pair ``(ptr, flat)``, in that order, as a
    CSR pair of their own (one segmented gather)."""
    lengths = np.diff(ptr)[rows]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    if len(rows) == 0:
        return out, flat[:0]
    return out, flat[segmented_arange(ptr[:-1][rows], lengths)]


def csr_from_pairs(n_rows: int, rows: np.ndarray, cols: np.ndarray, *payloads):
    """Sort ``(row, col)`` pairs into CSR: ``(ptr, cols, *payloads)``,
    row ``r`` holding its ascending cols ``cols[ptr[r]:ptr[r+1]]`` and
    each payload carried along pair for pair (one ``lexsort``, one
    ``bincount``)."""
    order = np.lexsort((cols, rows))
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    return (ptr, cols[order], *(payload[order] for payload in payloads))
