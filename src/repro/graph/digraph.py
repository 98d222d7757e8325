"""Compressed-sparse-row directed graph.

The influence-propagation hot path is the *reverse* breadth-first search used
to sample Reverse Reachable (RR) sets: starting from a root ``v`` we walk
in-edges, keeping each with its influence probability.  The graph therefore
stores **both** adjacency directions as CSR arrays:

* ``out_ptr/out_dst`` — out-neighbours, used by forward Monte-Carlo
  simulation and by the LT model;
* ``in_ptr/in_src/in_prob`` — in-neighbours with the per-edge influence
  probability ``p(e)`` aligned edge-for-edge, used by reverse sampling.

Edge probabilities default to the weighted-cascade setting of the paper,
``p(u -> v) = 1 / N_v`` with ``N_v`` the in-degree of ``v`` (Section 2.1),
but any per-edge assignment can be supplied — the algorithms are independent
of how ``p(e)`` is set (paper, footnote 3).

Vertices are dense integers ``0..n-1``.  Parallel edges are rejected;
self-loops are rejected (a user does not influence themself through an edge).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.utils.segments import csr_from_pairs

__all__ = ["DiGraph"]

_VERTEX_DTYPE = np.int64
_PROB_DTYPE = np.float64


class DiGraph:
    """Immutable directed graph with per-edge influence probabilities.

    Construct via :meth:`from_edges` (the common path) or directly from
    validated CSR arrays (used by the binary loader).

    Attributes
    ----------
    n:
        Number of vertices.
    m:
        Number of directed edges.
    """

    __slots__ = (
        "n",
        "m",
        "out_ptr",
        "out_dst",
        "in_ptr",
        "in_src",
        "in_prob",
        "_out_order",
        "_out_prob",
    )

    def __init__(
        self,
        n: int,
        out_ptr: np.ndarray,
        out_dst: np.ndarray,
        in_ptr: np.ndarray,
        in_src: np.ndarray,
        in_prob: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.n = int(n)
        self.m = int(len(out_dst))
        self.out_ptr = np.ascontiguousarray(out_ptr, dtype=_VERTEX_DTYPE)
        self.out_dst = np.ascontiguousarray(out_dst, dtype=_VERTEX_DTYPE)
        self.in_ptr = np.ascontiguousarray(in_ptr, dtype=_VERTEX_DTYPE)
        self.in_src = np.ascontiguousarray(in_src, dtype=_VERTEX_DTYPE)
        self.in_prob = np.ascontiguousarray(in_prob, dtype=_PROB_DTYPE)
        self._out_order: Optional[np.ndarray] = None
        self._out_prob: Optional[np.ndarray] = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        probs: Optional[Sequence[float]] = None,
    ) -> "DiGraph":
        """Build a graph from ``(source, target)`` pairs.

        Parameters
        ----------
        n:
            Vertex count; edge endpoints must lie in ``[0, n)``.
        edges:
            Iterable of directed edges, or an ``(m, 2)`` integer array of
            them.  Duplicates and self-loops raise
            :class:`~repro.errors.GraphError`.
        probs:
            Optional per-edge influence probabilities aligned with ``edges``.
            When omitted, the weighted-cascade default ``1 / in_degree(v)``
            is used, matching the paper's experimental setting.
        """
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_array = np.asarray(edges, dtype=_VERTEX_DTYPE)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (source, target) pairs")
        m = edge_array.shape[0]

        if m:
            lo = edge_array.min()
            hi = edge_array.max()
            if lo < 0 or hi >= n:
                raise GraphError(
                    f"edge endpoint out of range [0, {n}): found {lo if lo < 0 else hi}"
                )
            if np.any(edge_array[:, 0] == edge_array[:, 1]):
                raise GraphError("self-loops are not allowed")
            keys = edge_array[:, 0] * n + edge_array[:, 1]
            if len(np.unique(keys)) != m:
                raise GraphError("parallel edges are not allowed")

        src = edge_array[:, 0]
        dst = edge_array[:, 1]

        if probs is not None:
            prob_array = np.asarray(probs, dtype=_PROB_DTYPE)
            if prob_array.shape != (m,):
                raise GraphError(
                    f"probs must have one entry per edge ({m}), got shape {prob_array.shape}"
                )
            if m and (prob_array.min() < 0.0 or prob_array.max() > 1.0):
                raise GraphError("edge probabilities must lie in [0, 1]")
        else:
            in_deg = np.bincount(dst, minlength=n).astype(_PROB_DTYPE)
            prob_array = 1.0 / in_deg[dst] if m else np.empty(0, dtype=_PROB_DTYPE)

        out_ptr, out_dst = csr_from_pairs(n, src, dst)
        in_ptr, in_src, in_prob = csr_from_pairs(n, dst, src, prob_array)
        return cls(n, out_ptr, out_dst, in_ptr, in_src, in_prob, validate=False)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def in_degree(self, v: int) -> int:
        """Number of in-neighbours of ``v``."""
        self._check_vertex(v)
        return int(self.in_ptr[v + 1] - self.in_ptr[v])

    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of edges leaving ``v`` (view, do not mutate)."""
        self._check_vertex(v)
        return self.out_dst[self.out_ptr[v] : self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of edges entering ``v`` (view, do not mutate)."""
        self._check_vertex(v)
        return self.in_src[self.in_ptr[v] : self.in_ptr[v + 1]]

    @property
    def out_order(self) -> np.ndarray:
        """The permutation that re-sorts an in-CSR edge payload by
        (source, target): ``payload[out_order]`` is aligned with
        ``out_dst``, which forward simulation walks.  Computed once and
        cached."""
        if self._out_order is None:
            dst = np.repeat(np.arange(self.n, dtype=_VERTEX_DTYPE), self.in_degrees())
            self._out_order = np.lexsort((dst, self.in_src))
        return self._out_order

    @property
    def out_prob(self) -> np.ndarray:
        """Edge probabilities aligned with ``out_dst`` (the authoritative
        ``in_prob`` through :attr:`out_order`; computed once and cached)."""
        if self._out_prob is None:
            self._out_prob = self.in_prob[self.out_order]
        return self._out_prob

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an array of length ``n``."""
        return np.diff(self.in_ptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an array of length ``n``."""
        return np.diff(self.out_ptr)

    def average_degree(self) -> float:
        """Average degree ``m / n`` (the paper's ``AveDegree`` in Table 2)."""
        if self.n == 0:
            return 0.0
        return self.m / self.n

    def edges(self) -> Iterable[Tuple[int, int, float]]:
        """Yield ``(source, target, probability)`` for every edge.

        Iteration order is by target vertex (in-CSR order); it is
        deterministic for a given graph.
        """
        for v in range(self.n):
            start, stop = self.in_ptr[v], self.in_ptr[v + 1]
            for idx in range(start, stop):
                yield int(self.in_src[idx]), v, float(self.in_prob[idx])

    def edge_probability(self, u: int, v: int) -> float:
        """Return ``p(u -> v)``; raises if the edge does not exist."""
        self._check_vertex(u)
        self._check_vertex(v)
        start, stop = self.in_ptr[v], self.in_ptr[v + 1]
        block = self.in_src[start:stop]
        pos = np.searchsorted(block, u)
        if pos >= len(block) or block[pos] != u:
            raise GraphError(f"edge ({u} -> {v}) does not exist")
        return float(self.in_prob[start + pos])

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.in_ptr, other.in_ptr)
            and np.array_equal(self.in_src, other.in_src)
            and np.allclose(self.in_prob, other.in_prob)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        raise TypeError("DiGraph is not hashable")

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m}, avg_degree={self.average_degree():.2f})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")

    def _validate(self) -> None:
        n, m = self.n, self.m
        for name, ptr, idx in (
            ("out", self.out_ptr, self.out_dst),
            ("in", self.in_ptr, self.in_src),
        ):
            if ptr.shape != (n + 1,):
                raise GraphError(f"{name}_ptr must have length n+1")
            if ptr[0] != 0 or ptr[-1] != m:
                raise GraphError(f"{name}_ptr must span [0, m]")
            if np.any(np.diff(ptr) < 0):
                raise GraphError(f"{name}_ptr must be non-decreasing")
            if idx.shape != (m,):
                raise GraphError(f"{name} index array must have length m")
            if m and (idx.min() < 0 or idx.max() >= n):
                raise GraphError(f"{name} index out of range")
        if self.in_prob.shape != (m,):
            raise GraphError("in_prob must have length m")
        if m and (self.in_prob.min() < 0.0 or self.in_prob.max() > 1.0):
            raise GraphError("edge probabilities must lie in [0, 1]")
