"""Abstract propagation model.

The paper adopts IC for its experiments but stresses (Sections 2.1 and 6.6)
that the WRIS/RR/IRR machinery is model-agnostic: RIS-style sampling only
requires a way to draw Reverse Reachable sets under the model's live-edge
distribution.  This base class pins down that contract: one batched
``sample_rr_sets(roots, rng)`` and one forward ``simulate(seeds, rng)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.rng import RngLike
from repro.utils.rrsets import FlatRRSets

__all__ = ["PropagationModel", "validate_seed_set"]


class PropagationModel(ABC):
    """A diffusion model over a fixed :class:`~repro.graph.DiGraph`.

    Implementations must be stateless across calls (all randomness flows
    through the ``rng`` argument) so that samples are independent and the
    model can be shared between threads and indexes.
    """

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in reports (``"IC"``, ``"LT"``, ...)."""

    @abstractmethod
    def sample_rr_sets(self, roots: Sequence[int], rng: RngLike = None) -> FlatRRSets:
        """Draw one Reverse Reachable set (Definition 2) per root, in root
        order, as one :class:`~repro.utils.rrsets.FlatRRSets`.

        Set ``i`` is the sorted ``int64`` ids of the vertices that reach
        ``roots[i]`` in a live-edge world sampled from the model; it
        always contains the root.  An out-of-range root raises
        :class:`~repro.errors.GraphError`; no roots give an empty batch.
        """

    @abstractmethod
    def simulate(self, seeds: Sequence[int], rng: RngLike = None) -> np.ndarray:
        """Run one forward cascade ``I(S)`` from ``seeds``.

        Returns the sorted ``int64`` array of all activated vertices
        (including the seeds).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"


def validate_seed_set(graph: DiGraph, seeds: Sequence[int]) -> np.ndarray:
    """Normalise a seed set into a sorted unique ``int64`` array.

    Raises ``ValueError`` for out-of-range or duplicate seeds — seed sets
    are sets, and silently collapsing duplicates would hide caller bugs.
    """
    arr = np.asarray(list(seeds), dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("seeds must be a flat sequence of vertex ids")
    if arr.size:
        if arr.min() < 0 or arr.max() >= graph.n:
            raise ValueError(f"seed out of range [0, {graph.n})")
        unique = np.unique(arr)
        if len(unique) != len(arr):
            raise ValueError("duplicate seeds in seed set")
        return unique
    return arr
