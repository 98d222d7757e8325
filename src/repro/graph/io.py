"""Graph persistence: human-readable edge lists and binary ``.npz`` snapshots.

Two formats are provided:

* **Edge list** (``.tsv``): one ``source<TAB>target[<TAB>probability]`` line
  per edge, with ``#``-prefixed comments.  Interoperable with SNAP dumps, so
  a user with the original Twitter/News datasets can feed them in directly.
* **NPZ snapshot**: the validated CSR arrays, loading in milliseconds and
  bit-exact.  Used by the benchmark harness to cache generated datasets.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

__all__ = ["save_edge_list", "load_edge_list", "save_npz", "load_npz"]

PathLike = Union[str, os.PathLike]

_NPZ_VERSION = 1


def save_edge_list(graph: DiGraph, path: PathLike, *, probs: bool = True) -> None:
    """Write ``graph`` as a TSV edge list.

    Parameters
    ----------
    probs:
        When true (default) a third column carries ``p(e)``; otherwise the
        file is a plain SNAP-style pair list and probabilities are
        re-derived as ``1/in_degree`` on load.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# directed graph: n={graph.n} m={graph.m}\n")
        fh.write("# source\ttarget" + ("\tprobability\n" if probs else "\n"))
        for u, v, p in graph.edges():
            if probs:
                fh.write(f"{u}\t{v}\t{p!r}\n")
            else:
                fh.write(f"{u}\t{v}\n")


def load_edge_list(path: PathLike, *, n: Optional[int] = None) -> DiGraph:
    """Read a TSV edge list written by :func:`save_edge_list` or SNAP.

    Parameters
    ----------
    n:
        Vertex count; defaults to ``max endpoint + 1``.
    """
    edges = []
    probs: list = []
    has_probs: Optional[bool] = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"{path}:{lineno}: expected 2 or 3 columns")
            if has_probs is None:
                has_probs = len(parts) == 3
            elif has_probs != (len(parts) == 3):
                raise GraphError(f"{path}:{lineno}: inconsistent column count")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: bad vertex id") from exc
            edges.append((u, v))
            if has_probs:
                try:
                    probs.append(float(parts[2]))
                except ValueError as exc:
                    raise GraphError(f"{path}:{lineno}: bad probability") from exc
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return DiGraph.from_edges(n, edges, probs if has_probs else None)


def save_npz(graph: DiGraph, path: PathLike) -> None:
    """Persist the CSR arrays as a compressed ``.npz`` snapshot."""
    np.savez_compressed(
        path,
        format_version=np.int64(_NPZ_VERSION),
        n=np.int64(graph.n),
        out_ptr=graph.out_ptr,
        out_dst=graph.out_dst,
        in_ptr=graph.in_ptr,
        in_src=graph.in_src,
        in_prob=graph.in_prob,
    )


def load_npz(path: PathLike) -> DiGraph:
    """Load a snapshot produced by :func:`save_npz` (validates on load)."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _NPZ_VERSION:
            raise GraphError(
                f"unsupported graph snapshot version {version} "
                f"(expected {_NPZ_VERSION})"
            )
        return DiGraph(
            int(data["n"]),
            data["out_ptr"],
            data["out_dst"],
            data["in_ptr"],
            data["in_src"],
            data["in_prob"],
        )
