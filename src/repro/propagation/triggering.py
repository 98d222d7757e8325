"""General triggering model (Kempe et al.; paper Section 2.1, footnote 2).

Every vertex ``v`` independently draws a *triggering set* ``T_v`` from a
distribution over subsets of its in-neighbours; ``v`` activates when any
member of ``T_v`` is active.  IC (each in-edge in ``T_v`` independently
with ``p(e)``) and LT (at most one in-edge) are special cases.

The class takes the trigger distribution as a callable so tests and users
can plug arbitrary models; :meth:`GeneralTriggering.independent` and
:meth:`GeneralTriggering.single_pick` rebuild IC / LT semantics through the
generic path, which the test suite uses to cross-validate all three
implementations against each other.

When the trigger distribution is *declared* in one of the two canned
forms — per-edge probabilities (``edge_probs``) or a single weighted pick
(``pick_weights``) — :meth:`sample_rr_sets_batch` rides the corresponding
batched kernel from :mod:`repro.propagation.kernels`; arbitrary callable
distributions retain the scalar per-root fallback, and the scalar walk
stays the statistical reference either way.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.propagation.base import PropagationModel, validate_seed_set
from repro.propagation.kernels import (
    as_root_array,
    batched_bernoulli_rr,
    batched_single_pick_rr,
    build_single_pick_keys,
)
from repro.utils.rng import RngLike, as_rng
from repro.utils.rrsets import FlatRRSets

__all__ = ["GeneralTriggering", "TriggerSampler"]

#: ``sampler(vertex, rng) -> array of in-neighbour ids`` drawn as T_v.
TriggerSampler = Callable[[int, np.random.Generator], np.ndarray]


class GeneralTriggering(PropagationModel):
    """Triggering model parameterised by a per-vertex trigger sampler.

    Parameters
    ----------
    graph:
        The social graph.
    trigger_sampler:
        Callable drawing ``T_v`` for a vertex; always authoritative for
        the scalar paths (``sample_rr_set`` / ``simulate``).
    edge_probs:
        Optional declaration that the trigger distribution is "each
        in-edge independently with these probabilities" (aligned with the
        in-CSR).  Enables the batched Bernoulli kernel; the caller must
        ensure the callable draws the same distribution.
    pick_weights:
        Optional declaration that the distribution is "at most one
        in-edge, weighted by these per-edge weights" (aligned with the
        in-CSR, per-vertex sums <= 1).  Enables the batched single-pick
        kernel under the same caller contract.
    """

    def __init__(
        self,
        graph: DiGraph,
        trigger_sampler: TriggerSampler,
        *,
        edge_probs: Optional[np.ndarray] = None,
        pick_weights: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(graph)
        if not callable(trigger_sampler):
            raise TypeError("trigger_sampler must be callable")
        self.trigger_sampler = trigger_sampler
        if edge_probs is not None and pick_weights is not None:
            raise GraphError(
                "a trigger distribution is either per-edge Bernoulli or a "
                "single pick, not both"
            )
        if edge_probs is not None:
            edge_probs = np.ascontiguousarray(edge_probs, dtype=np.float64)
            if edge_probs.shape != (graph.m,):
                raise GraphError(
                    f"edge_probs must have one entry per edge ({graph.m}), "
                    f"got shape {edge_probs.shape}"
                )
            if graph.m and (edge_probs.min() < 0.0 or edge_probs.max() > 1.0):
                raise GraphError("edge_probs must lie in [0, 1]")
        self.edge_probs = edge_probs
        if pick_weights is not None:
            pick_weights = np.ascontiguousarray(pick_weights, dtype=np.float64)
            if pick_weights.shape != (graph.m,):
                raise GraphError(
                    f"pick_weights must have one entry per edge ({graph.m}), "
                    f"got shape {pick_weights.shape}"
                )
            if graph.m and pick_weights.min() < 0.0:
                # Negative weights would make the cumulative searchsorted
                # keys non-monotone and silently corrupt the batched draw.
                raise GraphError("pick_weights must be non-negative")
        self.pick_weights = pick_weights
        self._pick_keys: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        """Model identifier used in reports."""
        return "TR"

    # ------------------------------------------------------------------
    # canned distributions
    # ------------------------------------------------------------------
    @classmethod
    def independent(cls, graph: DiGraph) -> "GeneralTriggering":
        """IC as a triggering model: each in-edge enters T_v with ``p(e)``."""

        def sampler(v: int, gen: np.random.Generator) -> np.ndarray:
            neighbors = graph.in_neighbors(v)
            if len(neighbors) == 0:
                return neighbors
            coins = gen.random(len(neighbors)) < graph.in_edge_probs(v)
            return neighbors[coins]

        return cls(graph, sampler, edge_probs=graph.in_prob)

    @classmethod
    def single_pick(cls, graph: DiGraph, weights: np.ndarray) -> "GeneralTriggering":
        """LT as a triggering model: at most one in-edge, per ``weights``.

        ``weights`` is aligned with the in-CSR, per-vertex sums <= 1.
        """
        weights = np.ascontiguousarray(weights, dtype=np.float64)

        def sampler(v: int, gen: np.random.Generator) -> np.ndarray:
            start, stop = graph.in_ptr[v], graph.in_ptr[v + 1]
            if start == stop:
                return np.empty(0, dtype=np.int64)
            draw = gen.random()
            acc = 0.0
            for idx in range(start, stop):
                acc += weights[idx]
                if draw < acc:
                    return np.asarray([graph.in_src[idx]], dtype=np.int64)
            return np.empty(0, dtype=np.int64)

        return cls(graph, sampler, pick_weights=weights)

    # ------------------------------------------------------------------
    # model primitives
    # ------------------------------------------------------------------
    def sample_rr_set(self, root: int, rng: RngLike = None) -> np.ndarray:
        """Reverse search expanding each visited vertex's trigger set.

        Always drives the trigger callable — the scalar statistical
        reference for the batched kernels.
        """
        graph = self.graph
        graph._check_vertex(root)
        gen = as_rng(rng)

        visited = np.zeros(graph.n, dtype=bool)
        visited[root] = True
        result = [root]
        frontier = [root]
        while frontier:
            next_frontier = []
            for x in frontier:
                for u in self.trigger_sampler(x, gen):
                    u = int(u)
                    if not visited[u]:
                        visited[u] = True
                        result.append(u)
                        next_frontier.append(u)
            frontier = next_frontier
        result.sort()
        return np.asarray(result, dtype=np.int64)

    def sample_rr_sets_batch(
        self, roots: Sequence[int], rng: RngLike = None
    ) -> FlatRRSets:
        """Batched sampling when the trigger distribution is declared.

        ``edge_probs`` rides the Bernoulli kernel, ``pick_weights`` the
        single-pick kernel; undeclared (arbitrary-callable) distributions
        fall back to the scalar per-root walk.
        """
        if self.edge_probs is None and self.pick_weights is None:
            return super().sample_rr_sets_batch(roots, rng)
        roots_arr = as_root_array(self.graph, roots)
        gen = as_rng(rng)
        if self.edge_probs is not None:
            return batched_bernoulli_rr(self.graph, self.edge_probs, roots_arr, gen)
        if self._pick_keys is None:
            self._pick_keys = build_single_pick_keys(self.graph, self.pick_weights)
        return batched_single_pick_rr(self.graph, self._pick_keys, roots_arr, gen)

    def simulate(self, seeds: Sequence[int], rng: RngLike = None) -> np.ndarray:
        """Forward cascade by materialising one live-edge world.

        Trigger sets are drawn for every vertex up front (they are
        independent of the process), then activation is reachability over
        the induced live edges.
        """
        graph = self.graph
        seed_arr = validate_seed_set(graph, seeds)
        gen = as_rng(rng)

        # live_in[v] = members of T_v; build lazily only for vertices we
        # might touch?  Correctness first: draw all (n is small in this
        # reproduction); the RIS algorithms never call simulate.
        live_out: dict = {}
        for v in range(graph.n):
            for u in self.trigger_sampler(v, gen):
                live_out.setdefault(int(u), []).append(v)

        active = np.zeros(graph.n, dtype=bool)
        active[seed_arr] = True
        result = [int(s) for s in seed_arr]
        frontier = list(result)
        while frontier:
            next_frontier = []
            for u in frontier:
                for v in live_out.get(u, ()):
                    if not active[v]:
                        active[v] = True
                        result.append(v)
                        next_frontier.append(v)
            frontier = next_frontier
        result.sort()
        return np.asarray(result, dtype=np.int64)
