"""Graph persistence: binary ``.npz`` snapshots.

A snapshot holds the validated CSR arrays, loads in milliseconds and is
bit-exact.  ``repro generate`` writes it and the other commands read it.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

__all__ = ["save_npz", "load_npz"]

PathLike = Union[str, os.PathLike]

_NPZ_VERSION = 1


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
