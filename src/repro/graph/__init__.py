"""Social-graph substrate: CSR digraph, generators, persistence, statistics."""

from repro.graph.digraph import DiGraph
from repro.graph.generators import news_like, twitter_like
from repro.graph.io import load_npz, save_npz
from repro.graph.stats import (
    GraphSummary,
    in_degree_histogram,
    log_binned_histogram,
    summarize,
)

__all__ = [
    "DiGraph",
    "news_like",
    "twitter_like",
    "load_npz",
    "save_npz",
    "GraphSummary",
    "in_degree_histogram",
    "log_binned_histogram",
    "summarize",
]
