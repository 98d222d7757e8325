"""Graph statistics used by Figure 4 and Table 2 of the paper.

Figure 4 plots the in-degree frequency distribution of both datasets on
log-log axes.  :func:`in_degree_histogram` produces the exact (degree,
count) series; :func:`log_binned_histogram` produces the log-binned variant
commonly used to de-noise the tail, which is what the benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = [
    "GraphSummary",
    "in_degree_histogram",
    "log_binned_histogram",
    "summarize",
]


@dataclass(frozen=True)
class GraphSummary:
    """The per-dataset row of the paper's Table 2."""

    n_users: int
    n_edges: int
    avg_degree: float
    max_in_degree: int
    max_out_degree: int


def summarize(graph: DiGraph) -> GraphSummary:
    """Compute the Table 2 statistics for ``graph``."""
    in_deg = graph.in_degrees()
    out_deg = graph.out_degrees()
    return GraphSummary(
        n_users=graph.n,
        n_edges=graph.m,
        avg_degree=graph.average_degree(),
        max_in_degree=int(in_deg.max()) if graph.n else 0,
        max_out_degree=int(out_deg.max()) if graph.n else 0,
    )


def in_degree_histogram(graph: DiGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(degrees, user_counts)`` for degrees with at least one user.

    This is the raw series plotted in Figure 4 ("Number of Users" against
    "In Degrees").  Degree 0 is included when present, although log-log
    plots drop it.
    """
    counts = np.bincount(graph.in_degrees())
    degrees = np.nonzero(counts)[0]
    return degrees, counts[degrees]


def log_binned_histogram(
    degrees: np.ndarray, counts: np.ndarray, *, bins_per_decade: int = 4
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate a degree histogram into logarithmic bins.

    Parameters
    ----------
    degrees, counts:
        Output of :func:`in_degree_histogram` (degree 0 is ignored).
    bins_per_decade:
        Resolution of the binning; 4 matches typical degree-distribution
        plots.

    Returns
    -------
    (bin_centers, bin_counts):
        Geometric bin centres and the total user count per bin, with empty
        bins removed.
    """
    if bins_per_decade < 1:
        raise ValueError(f"bins_per_decade must be >= 1, got {bins_per_decade}")
    mask = degrees > 0
    degrees = np.asarray(degrees)[mask]
    counts = np.asarray(counts)[mask]
    if degrees.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    max_degree = degrees.max()
    n_bins = max(1, int(np.ceil(np.log10(max_degree + 1) * bins_per_decade)))
    edges = np.logspace(0, np.log10(max_degree + 1), n_bins + 1)
    idx = np.clip(np.digitize(degrees, edges) - 1, 0, n_bins - 1)
    bin_counts = np.zeros(n_bins, dtype=np.int64)
    np.add.at(bin_counts, idx, counts)
    centers = np.sqrt(edges[:-1] * edges[1:])
    keep = bin_counts > 0
    return centers[keep], bin_counts[keep]
