"""Independent Cascade model (Section 2.1).

Each directed edge ``e = (u, v)`` carries an influence probability ``p(e)``
(stored on the graph, default ``1 / N_v``).  Under the live-edge view, every
edge is independently *live* with probability ``p(e)``; ``I(S)`` is the set
of vertices reachable from ``S`` through live edges, and an RR set for root
``v`` is the set of vertices that reach ``v`` through live edges.

The equivalence of the two views (deferred coin flipping) is what makes
reverse sampling correct, and it is what the cross-validation tests check:
``mean(|RR| ...)`` based estimates must agree with forward Monte Carlo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.propagation.base import PropagationModel, validate_seed_set
from repro.propagation.kernels import as_root_array, batched_bernoulli_rr
from repro.utils.rng import RngLike, as_rng
from repro.utils.rrsets import FlatRRSets

__all__ = ["IndependentCascade"]


class IndependentCascade(PropagationModel):
    """IC with per-edge probabilities taken from the graph."""

    @property
    def name(self) -> str:
        """Model identifier used in reports."""
        return "IC"

    def sample_rr_set(self, root: int, rng: RngLike = None) -> np.ndarray:
        """Reverse BFS from ``root``, keeping each in-edge with ``p(e)``.

        Coins are flipped lazily edge-by-edge as the reverse search reaches
        each vertex; by deferred-decision equivalence this samples the same
        distribution as materialising a full live-edge world first.  Kept
        as the scalar statistical reference for the batched kernel.
        """
        graph = self.graph
        graph._check_vertex(root)
        gen = as_rng(rng)
        in_ptr = graph.in_ptr
        in_src = graph.in_src
        in_prob = graph.in_prob

        visited = np.zeros(graph.n, dtype=bool)
        visited[root] = True
        result = [root]
        frontier = [root]
        while frontier:
            next_frontier = []
            for x in frontier:
                start, stop = in_ptr[x], in_ptr[x + 1]
                if start == stop:
                    continue
                block_src = in_src[start:stop]
                coins = gen.random(stop - start) < in_prob[start:stop]
                for u in block_src[coins]:
                    if not visited[u]:
                        visited[u] = True
                        result.append(int(u))
                        next_frontier.append(int(u))
            frontier = next_frontier
        result.sort()
        return np.asarray(result, dtype=np.int64)

    def sample_rr_sets_batch(
        self, roots: Sequence[int], rng: RngLike = None
    ) -> FlatRRSets:
        """Batched multi-root reverse BFS: all roots expand level-locked.

        Delegates to the shared Bernoulli-edge kernel
        (:func:`~repro.propagation.kernels.batched_bernoulli_rr`) with the
        graph's in-CSR probabilities.  Statistically
        interchangeable with :meth:`sample_rr_set` (the tests check
        equivalence on shared seeds).
        """
        roots_arr = as_root_array(self.graph, roots)
        return batched_bernoulli_rr(
            self.graph, self.graph.in_prob, roots_arr, as_rng(rng)
        )

    def simulate(self, seeds: Sequence[int], rng: RngLike = None) -> np.ndarray:
        """Forward cascade: each new activation gets one shot per out-edge."""
        graph = self.graph
        seed_arr = validate_seed_set(graph, seeds)
        gen = as_rng(rng)
        out_ptr = graph.out_ptr
        out_dst = graph.out_dst
        out_prob = graph.out_prob

        active = np.zeros(graph.n, dtype=bool)
        active[seed_arr] = True
        result = [int(s) for s in seed_arr]
        frontier = list(result)
        while frontier:
            next_frontier = []
            for u in frontier:
                start, stop = out_ptr[u], out_ptr[u + 1]
                if start == stop:
                    continue
                block_dst = out_dst[start:stop]
                coins = gen.random(stop - start) < out_prob[start:stop]
                for v in block_dst[coins]:
                    if not active[v]:
                        active[v] = True
                        result.append(int(v))
                        next_frontier.append(int(v))
            frontier = next_frontier
        result.sort()
        return np.asarray(result, dtype=np.int64)
