"""Linear Threshold model (Granovetter; paper Sections 2.1 and 6.6).

Each vertex ``v`` assigns weights ``b(u, v) >= 0`` to its in-neighbours with
``Σ_u b(u, v) <= 1``; ``v`` activates once the active in-neighbour weight
passes a uniform random threshold.  Kempe et al. showed LT is a triggering
model whose live-edge distribution picks **at most one** in-edge per vertex
(edge ``(u, v)`` with probability ``b(u, v)``, none with the remainder),
which is exactly how :meth:`LinearThreshold.sample_rr_sets` walks backwards.

Following the paper's experimental setup (Section 6.6), the default weights
assign each in-edge a uniform random value normalised so that each vertex's
in-weights sum to 1.

The reverse walk is batched over all roots: the θ walks advance
level-locked through the single-pick kernel, each live walk choosing its
one live in-edge with a ``searchsorted`` into precomputed per-vertex
cumulative weights.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.propagation.base import PropagationModel, validate_seed_set
from repro.propagation.kernels import batched_single_pick_rr, build_single_pick_keys
from repro.utils.rng import RngLike, as_rng
from repro.utils.rrsets import FlatRRSets
from repro.utils.segments import segmented_arange

__all__ = ["LinearThreshold"]


class LinearThreshold(PropagationModel):
    """LT model with per-edge weights aligned to the graph's in-CSR.

    Parameters
    ----------
    graph:
        The social graph.
    weights:
        Optional array of length ``graph.m`` aligned with ``graph.in_src``;
        per-vertex sums must not exceed 1 (+ float slack).  When omitted,
        random normalised weights are drawn (paper Section 6.6) using
        ``weight_rng``.
    weight_rng:
        Seed / generator for the default weight draw, so that a model is
        reproducible independently of the query-time sampling streams.
    """

    def __init__(
        self,
        graph: DiGraph,
        weights: Optional[np.ndarray] = None,
        *,
        weight_rng: RngLike = 0,
    ) -> None:
        super().__init__(graph)
        if weights is None:
            weights = _random_normalized_weights(graph, weight_rng)
        else:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            _validate_weights(graph, weights)
        self.weights = weights
        # Per-vertex cumulative weights, offset by the target vertex id,
        # let every reverse walk pick its single live in-edge with one
        # global searchsorted (see kernels.build_single_pick_keys).
        self._pick_keys = build_single_pick_keys(graph, weights)

    @property
    def name(self) -> str:
        """Model identifier used in reports."""
        return "LT"

    def sample_rr_sets(self, roots: Sequence[int], rng: RngLike = None) -> FlatRRSets:
        """Batched multi-root reverse walk (level-locked single picks).

        Delegates to the single-pick kernel with the precomputed
        cumulative-weight keys; ``tests/oracles.py`` keeps the scalar
        backward walk the property tests check it against.
        """
        return batched_single_pick_rr(self.graph, self._pick_keys, roots, as_rng(rng))

    def simulate(self, seeds: Sequence[int], rng: RngLike = None) -> np.ndarray:
        """Forward threshold process with fresh uniform thresholds.

        Each level gathers the out-edges of the whole frontier in one
        segmented pass, accumulates the active in-neighbour weight with
        ``np.add.at`` (duplicate targets accumulate correctly), and
        activates by threshold mask.  Vertices already active keep
        receiving pressure harmlessly — their thresholds are never
        consulted again, exactly as in the per-edge formulation.
        """
        graph = self.graph
        seed_arr = validate_seed_set(graph, seeds)
        gen = as_rng(rng)
        thresholds = gen.random(graph.n)
        # Accumulated active in-weight per vertex.
        pressure = np.zeros(graph.n, dtype=np.float64)
        active = np.zeros(graph.n, dtype=bool)
        active[seed_arr] = True
        out_ptr, out_dst = graph.out_ptr, graph.out_dst
        edge_weight = self._weight_by_out_order()
        collected = [seed_arr]
        frontier = seed_arr
        while frontier.size:
            starts = out_ptr.take(frontier)
            degrees = out_ptr.take(frontier + 1)
            degrees -= starts
            if not int(degrees.sum()):
                break
            edge_index = segmented_arange(starts, degrees)
            targets = out_dst.take(edge_index)
            np.add.at(pressure, targets, edge_weight.take(edge_index))
            candidates = np.unique(targets[~active.take(targets)])
            newly = candidates[
                pressure.take(candidates) >= thresholds.take(candidates)
            ]
            if not newly.size:
                break
            active[newly] = True
            collected.append(newly)
            frontier = newly
        result = np.concatenate(collected)
        result.sort()
        return result

    def _weight_by_out_order(self) -> np.ndarray:
        """Weights re-sorted to align with the out-CSR (cached)."""
        cached = getattr(self, "_out_weights", None)
        if cached is None:
            cached = self._out_weights = self.weights[self.graph.out_order]
        return cached


def _random_normalized_weights(graph: DiGraph, rng: RngLike) -> np.ndarray:
    """Random in-edge weights normalised to sum to 1 per vertex.

    One ``bincount`` computes every vertex's weight sum; the per-edge
    division is a single gather (no per-vertex Python loop).
    """
    gen = as_rng(rng)
    weights = gen.random(graph.m)
    if not graph.m:
        return weights
    targets = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.in_ptr))
    totals = np.bincount(targets, weights=weights, minlength=graph.n)
    per_edge_total = totals[targets]
    degrees = np.diff(graph.in_ptr)[targets]
    # A vertex whose draws all came out exactly 0.0 (measure-zero) gets
    # the uniform fallback instead of a 0/0.
    return np.where(
        per_edge_total > 0.0, weights / per_edge_total, 1.0 / degrees
    )


def _validate_weights(graph: DiGraph, weights: np.ndarray) -> None:
    if weights.shape != (graph.m,):
        raise GraphError(
            f"LT weights must have one entry per edge ({graph.m}), "
            f"got shape {weights.shape}"
        )
    if not graph.m:
        return
    if weights.min() < 0:
        raise GraphError("LT weights must be non-negative")
    targets = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.in_ptr))
    totals = np.bincount(targets, weights=weights, minlength=graph.n)
    over = np.flatnonzero(totals > 1.0 + 1e-9)
    if over.size:
        v = int(over[0])
        raise GraphError(
            f"LT in-weights of vertex {v} sum to {totals[v]:.6f} > 1"
        )
