"""Social-graph substrate: CSR digraph, generators, persistence, statistics."""

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    erdos_renyi_digraph,
    news_like,
    twitter_like,
)
from repro.graph.io import (
    load_edge_list,
    load_npz,
    save_edge_list,
    save_npz,
)
from repro.graph.stats import (
    GraphSummary,
    in_degree_histogram,
    log_binned_histogram,
    summarize,
)

__all__ = [
    "DiGraph",
    "erdos_renyi_digraph",
    "news_like",
    "twitter_like",
    "load_edge_list",
    "save_edge_list",
    "load_npz",
    "save_npz",
    "GraphSummary",
    "in_degree_histogram",
    "log_binned_histogram",
    "summarize",
]
