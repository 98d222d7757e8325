"""The one representation of a batch of RR sets, and its inversion.

Every sampler returns its θ RR sets as one :class:`FlatRRSets` — a CSR
pointer / payload pair — and every consumer (OPT estimation, the
coverage engine, both index writers) reads that pair directly.  A list
of per-set arrays becomes flat in exactly two places: the scalar
sampling fallback of :class:`~repro.propagation.base.PropagationModel`
and the :class:`~repro.core.coverage.CoverageInstance` constructor,
which accepts hand-written sets for tests, oracles and examples.

:func:`group_by_vertex` is the one vertex → set-id inversion: the
coverage instance, the query-time merge and the writers' ``invert_csr``
all call it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, Tuple

import numpy as np

__all__ = ["FlatRRSets", "group_by_vertex"]


class FlatRRSets(Sequence):
    """θ RR sets stored back to back in one CSR pointer/payload pair.

    ``vertices[ptr[i]:ptr[i+1]]`` is the i-th RR set (sorted vertex ids).
    Instances are immutable by convention; the arrays are shared, never
    copied, by every view handed out.  Indexing and iteration yield
    zero-copy per-set views.
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

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, index: int) -> np.ndarray:
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

    def sizes(self) -> np.ndarray:
        """Per-set cardinalities (length ``len(self)``)."""
        return np.diff(self.ptr)

    def set_ids(self) -> np.ndarray:
        """The id of the set each payload entry belongs to, aligned with
        :attr:`vertices` — the other half of its ``(vertex, set id)``
        pairs."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.sizes())

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
        """Stack several batches into one, set ids renumbered in order."""
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


def group_by_vertex(
    n_vertices: int, vertices: np.ndarray, set_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Group aligned ``(vertex, set id)`` pairs by vertex.

    Returns the dense CSR ``(vtx_ptr, vtx_sets)``: vertex ``v`` (in
    ``[0, n_vertices)``) is paired with ``vtx_sets[vtx_ptr[v]:vtx_ptr[v+1]]``,
    in the pairs' input order — one ``bincount`` for the pointers, one
    stable argsort for the payload.
    """
    vtx_ptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertices, minlength=n_vertices), out=vtx_ptr[1:])
    return vtx_ptr, set_ids[np.argsort(vertices, kind="stable")]
