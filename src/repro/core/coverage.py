"""Greedy maximum coverage (step 2 of the RIS framework).

Given a collection of RR sets, pick ``k`` vertices covering the maximum
number of sets.  The classic greedy algorithm gives the ``(1 - 1/e)``
factor that steps S3-S4 of the paper's proof sketch rely on.

The instance is stored as two flat CSR layouts instead of Python
containers, so the whole pipeline — counting, greedy updates, and the
query-time merge of per-keyword blocks — runs as array kernels:

* ``set_ptr`` / ``set_vertices`` — RR set ``s`` occupies
  ``set_vertices[set_ptr[s]:set_ptr[s+1]]`` (sorted vertex ids);
* ``vtx_ptr`` / ``vtx_sets`` — the inverted mapping (the paper's ``L``):
  vertex ``v`` appears in sets ``vtx_sets[vtx_ptr[v]:vtx_ptr[v+1]]``
  (ascending set ids), built by :func:`~repro.utils.rrsets.group_by_vertex`.

The greedy itself (:func:`greedy_max_coverage`) is one dense kernel: an
``argmax`` over the live count array per pick, then an incremental cover
step that decrements only the members of the newly covered sets.  Ties
break towards the smallest vertex id (the first maximum), which makes
Theorem 3 testable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.utils.rrsets import FlatRRSets, group_by_vertex
from repro.utils.segments import segmented_arange

__all__ = [
    "CoverageInstance",
    "greedy_max_coverage",
    "merge_coverage_csr",
]

_ID_DTYPE = np.int64


class CoverageInstance:
    """An in-memory maximum-coverage instance over RR sets.

    Parameters
    ----------
    n_vertices:
        Universe size (vertex ids must lie in ``[0, n_vertices)``).
    rr_sets:
        The RR sets, each sorted: a sampler's
        :class:`~repro.utils.rrsets.FlatRRSets`, used as-is, or per-set
        arrays written by hand (tests, oracles, examples), flattened here
        once.  The inverted CSR is derived with
        :func:`~repro.utils.rrsets.group_by_vertex`.
    """

    def __init__(self, n_vertices: int, rr_sets: Sequence[np.ndarray]) -> None:
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        flat = FlatRRSets.from_sets(rr_sets)
        set_vertices = flat.vertices
        if set_vertices.size:
            lo, hi = set_vertices.min(), set_vertices.max()
            if lo < 0 or hi >= n_vertices:
                bad = int(
                    np.argmin(set_vertices) if lo < 0 else np.argmax(set_vertices)
                )
                set_id = int(np.searchsorted(flat.ptr, bad, side="right")) - 1
                raise ValueError(
                    f"RR set {set_id} contains vertex outside [0, {n_vertices})"
                )
        self.n_vertices = n_vertices
        self.set_ptr = flat.ptr
        self.set_vertices = set_vertices
        self.vtx_ptr, self.vtx_sets = group_by_vertex(
            n_vertices, set_vertices, flat.set_ids()
        )

    @classmethod
    def from_csr(
        cls,
        n_vertices: int,
        set_ptr: np.ndarray,
        set_vertices: np.ndarray,
        vtx_ptr: np.ndarray,
        vtx_sets: np.ndarray,
    ) -> "CoverageInstance":
        """Wrap pre-built CSR arrays without touching Python containers.

        The fast path for the query/serving layers, which assemble merged
        instances by array concatenation (:func:`merge_coverage_csr`).
        Arrays are trusted (no range re-validation).
        """
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        instance = cls.__new__(cls)
        instance.n_vertices = int(n_vertices)
        instance.set_ptr = np.ascontiguousarray(set_ptr, dtype=_ID_DTYPE)
        instance.set_vertices = np.ascontiguousarray(
            set_vertices, dtype=_ID_DTYPE
        )
        instance.vtx_ptr = np.ascontiguousarray(vtx_ptr, dtype=_ID_DTYPE)
        instance.vtx_sets = np.ascontiguousarray(vtx_sets, dtype=_ID_DTYPE)
        return instance

    @property
    def n_sets(self) -> int:
        """Number of RR sets in the instance."""
        return len(self.set_ptr) - 1

    def counts(self) -> np.ndarray:
        """Initial per-vertex coverage counts (length ``n_vertices``).

        A fresh array on every call: the greedy kernel decrements its
        copy in place, and the instance stays reusable.
        """
        return np.diff(self.vtx_ptr)


def merge_coverage_csr(
    n_vertices: int,
    parts: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> CoverageInstance:
    """Merge per-keyword CSR blocks into one coverage instance.

    Each part is ``(set_ptr, set_vertices, inv_vertices, inv_sets)`` where
    ``inv_vertices``/``inv_sets`` are aligned ``(vertex, global set id)``
    pairs — already clipped to the active prefix and offset into the
    merged set-id space.  Only array concatenation and
    :func:`~repro.utils.rrsets.group_by_vertex` (one bincount, one stable
    argsort); no per-vertex Python work.
    """
    parts = list(parts)
    ptr_chunks: List[np.ndarray] = [np.zeros(1, dtype=_ID_DTYPE)]
    offset = 0
    for set_ptr, _sv, _iv, _is in parts:
        ptr_chunks.append(np.asarray(set_ptr[1:], dtype=_ID_DTYPE) + offset)
        offset += int(set_ptr[-1])
    set_ptr = np.concatenate(ptr_chunks)
    set_vertices = (
        np.concatenate([p[1] for p in parts])
        if parts
        else np.empty(0, dtype=_ID_DTYPE)
    )
    inv_vertices = (
        np.concatenate([p[2] for p in parts])
        if parts
        else np.empty(0, dtype=_ID_DTYPE)
    )
    inv_sets = (
        np.concatenate([p[3] for p in parts])
        if parts
        else np.empty(0, dtype=_ID_DTYPE)
    )
    return CoverageInstance.from_csr(
        n_vertices,
        set_ptr,
        set_vertices,
        *group_by_vertex(n_vertices, inv_vertices, inv_sets),
    )


def greedy_max_coverage(
    instance: CoverageInstance, k: int
) -> Tuple[List[int], List[int]]:
    """Greedy maximum coverage: repeatedly pick the vertex covering most sets.

    Returns ``(seeds, marginal_coverages)`` in pick order.  When fewer than
    ``k`` vertices exist, all vertices are returned.  Zero-marginal picks
    choose the smallest unselected vertex id, mirroring what Algorithm 2
    degenerates to.

    One dense kernel, no Python container in the loop.  ``counts[v]`` is
    kept equal to the number of still-uncovered sets containing ``v``, so
    a pick is the first ``argmax`` (smallest id among ties) and a picked
    vertex needs no mask: covering its sets drops its own count to 0, and
    a 0 is never picked.  The cover step gathers the members of the newly
    covered sets in one segmented pass and decrements them with
    ``np.subtract.at`` — O(n_vertices + touched incidences) per pick.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    limit = min(k, instance.n_vertices)
    counts = instance.counts()
    set_ptr, set_vertices = instance.set_ptr, instance.set_vertices
    vtx_ptr, vtx_sets = instance.vtx_ptr, instance.vtx_sets
    set_len = np.diff(set_ptr)
    alive = np.ones(instance.n_sets, dtype=bool)

    seeds: List[int] = []
    marginals: List[int] = []
    while len(seeds) < limit:
        best = int(counts.argmax())
        gain = counts.item(best)
        if gain == 0:
            break
        seeds.append(best)
        marginals.append(gain)
        if len(seeds) == limit:
            break  # nobody reads the counts after the last pick
        ids = vtx_sets[vtx_ptr.item(best) : vtx_ptr.item(best + 1)]
        fresh = ids.compress(alive.take(ids))
        alive[fresh] = False
        # The fresh sets' members, gathered from the flat set CSR in one
        # segmented pass (``set_len`` is hoisted out of the loop).
        members = segmented_arange(set_ptr.take(fresh), set_len.take(fresh))
        np.subtract.at(counts, set_vertices.take(members), 1)

    if len(seeds) < limit:
        # Every live count is zero: fill with the smallest unpicked ids.
        unpicked = np.ones(instance.n_vertices, dtype=bool)
        unpicked[seeds] = False
        fillers = np.flatnonzero(unpicked)[: limit - len(seeds)].tolist()
        seeds += fillers
        marginals += [0] * len(fillers)
    return seeds, marginals
