"""Flat-CSR container for a batch of RR sets.

The batched samplers assemble all θ RR sets of a call into one pointer /
payload pair; historically that pair was immediately split back into a
Python list of per-set arrays, only for the downstream consumers
(coverage instances, index builders, record encoders) to re-concatenate
it.  :class:`FlatRRSets` keeps the flat layout end to end while remaining
a drop-in ``Sequence[np.ndarray]``: indexing and iteration yield zero-copy
views, so code written against a list of arrays keeps working, and code
that knows about the CSR form (``CoverageInstance``, the index writers)
can take ``ptr``/``vertices`` directly.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, List, Union

import numpy as np

__all__ = ["FlatRRSets"]


class FlatRRSets(Sequence):
    """θ RR sets stored back to back in one CSR pointer/payload pair.

    ``vertices[ptr[i]:ptr[i+1]]`` is the i-th RR set (sorted vertex ids).
    Instances are immutable by convention; the arrays are shared, never
    copied, by every view handed out.
    """

    __slots__ = ("ptr", "vertices")

    def __init__(self, ptr: np.ndarray, vertices: np.ndarray) -> None:
        self.ptr = np.ascontiguousarray(ptr, dtype=np.int64)
        self.vertices = np.ascontiguousarray(vertices, dtype=np.int64)
        if self.ptr.ndim != 1 or len(self.ptr) < 1:
            raise ValueError("ptr must be a 1-D array of length >= 1")
        if int(self.ptr[-1]) != len(self.vertices):
            raise ValueError(
                f"ptr[-1] ({int(self.ptr[-1])}) must equal the payload "
                f"length ({len(self.vertices)})"
            )

    # ------------------------------------------------------------------
    # Sequence protocol (list-of-arrays compatibility)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[np.ndarray, List[np.ndarray]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"RR set index {index} out of range [0, {n})")
        return self.vertices[self.ptr[index] : self.ptr[index + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        bounds = self.ptr.tolist()
        vertices = self.vertices
        for i in range(len(bounds) - 1):
            yield vertices[bounds[i] : bounds[i + 1]]

    # ------------------------------------------------------------------
    # CSR-aware helpers
    # ------------------------------------------------------------------
    def sizes(self) -> np.ndarray:
        """Per-set cardinalities (length ``len(self)``)."""
        return np.diff(self.ptr)

    @property
    def total_size(self) -> int:
        """Summed cardinality of all sets (the payload length)."""
        return len(self.vertices)

    @classmethod
    def from_sets(cls, rr_sets: Sequence) -> "FlatRRSets":
        """``rr_sets`` in flat form: itself when it already is, else one
        concatenation of its per-set arrays."""
        if isinstance(rr_sets, cls):
            return rr_sets
        ptr = np.zeros(len(rr_sets) + 1, dtype=np.int64)
        np.cumsum([len(rr) for rr in rr_sets], out=ptr[1:])
        sets = [np.asarray(rr, dtype=np.int64) for rr in rr_sets]
        return cls(ptr, np.concatenate(sets) if sets else np.empty(0, np.int64))

    @classmethod
    def concatenate(cls, parts: Sequence["FlatRRSets"]) -> "FlatRRSets":
        """Stack several batches into one (used by the chunked kernels)."""
        if not parts:
            return cls(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        if len(parts) == 1:
            return parts[0]
        chunks = [np.zeros(1, dtype=np.int64)]
        offset = 0
        for part in parts:
            chunks.append(part.ptr[1:] + offset)
            offset += int(part.ptr[-1])
        return cls(
            np.concatenate(chunks),
            np.concatenate([part.vertices for part in parts]),
        )

    def __repr__(self) -> str:
        return f"FlatRRSets(n_sets={len(self)}, total_size={self.total_size})"
