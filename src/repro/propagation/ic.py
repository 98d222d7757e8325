"""Independent Cascade model (Section 2.1).

Each directed edge ``e = (u, v)`` carries an influence probability ``p(e)``
(stored on the graph, default ``1 / N_v``).  Under the live-edge view, every
edge is independently *live* with probability ``p(e)``; ``I(S)`` is the set
of vertices reachable from ``S`` through live edges, and an RR set for root
``v`` is the set of vertices that reach ``v`` through live edges.

The equivalence of the two views (deferred coin flipping) is what makes
reverse sampling correct, and it is what the cross-validation tests check:
RR-based estimates must agree with forward Monte Carlo and exact
enumeration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.propagation.base import PropagationModel, validate_seed_set
from repro.propagation.kernels import batched_bernoulli_rr
from repro.utils.rng import RngLike, as_rng
from repro.utils.rrsets import FlatRRSets

__all__ = ["IndependentCascade"]


class IndependentCascade(PropagationModel):
    """IC with per-edge probabilities taken from the graph."""

    @property
    def name(self) -> str:
        """Model identifier used in reports."""
        return "IC"

    def sample_rr_sets(self, roots: Sequence[int], rng: RngLike = None) -> FlatRRSets:
        """Batched multi-root reverse BFS: all roots expand level-locked,
        each reached in-edge kept with ``p(e)``.

        Delegates to the Bernoulli-edge kernel
        (:func:`~repro.propagation.kernels.batched_bernoulli_rr`) with the
        graph's in-CSR probabilities.  ``tests/oracles.py`` keeps the
        scalar reverse BFS the tests check it against.
        """
        return batched_bernoulli_rr(self.graph, roots, as_rng(rng))

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
