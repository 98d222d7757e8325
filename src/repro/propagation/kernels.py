"""Batched multi-root reverse-sampling kernels, one per model.

Kempe et al.'s triggering view factors a diffusion model into a
per-vertex *trigger distribution*; the two models the paper's
experiments use have one each:

* **Bernoulli edges** (IC): every in-edge of a visited vertex enters the
  trigger set independently — the reverse search is a multi-frontier BFS;
* **single pick** (LT): at most one in-edge per vertex, edge ``(u, v)``
  with probability ``b(u, v)`` — the reverse search is a backward *walk*.

Both kernels here advance all θ roots level-locked over flat-CSR arrays:
one edge gather per level, one vectorised draw, and per-root visited
tracking through a flat ``(root slot, vertex)`` label array, chunked so
the label state stays bounded no matter how large θ grows.  They draw
from exactly the same distribution as the scalar per-root walks in
``tests/oracles.py`` (they consume the ``rng`` stream in a different
order, so equivalence is statistical, not bitwise — see
``tests/test_csr_fast_paths.py``).

Results come back as :class:`~repro.utils.rrsets.FlatRRSets`, the one
form of a batch of RR sets that estimation, coverage and both index
writers read; an empty root array yields an empty batch.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.rrsets import FlatRRSets
from repro.utils.segments import segmented_arange

__all__ = [
    "batched_bernoulli_rr",
    "batched_single_pick_rr",
    "build_single_pick_keys",
]

#: Upper bound on the ``roots x vertices`` visited-label state of one
#: batched chunk (bools, so also bytes).  Chunking keeps the batched
#: samplers' memory flat no matter how large θ grows.
_MAX_STATE_CELLS = 1 << 25

#: Minimum size of the pre-drawn uniform buffer shared by the levels of
#: one chunk (one RNG call amortised over many levels).
_COIN_BUFFER = 4096


def _root_array(graph: DiGraph, roots: Sequence[int]) -> np.ndarray:
    """Validate a root sequence into a flat int64 array."""
    roots_arr = np.asarray(roots, dtype=np.int64)
    if roots_arr.ndim != 1:
        raise ValueError("roots must be a flat sequence of vertex ids")
    if roots_arr.size and (roots_arr.min() < 0 or roots_arr.max() >= graph.n):
        bad = int(roots_arr.min()) if roots_arr.min() < 0 else int(roots_arr.max())
        graph._check_vertex(bad)
    return roots_arr


def _chunked(
    graph: DiGraph,
    roots: Sequence[int],
    gen: np.random.Generator,
    chunk_kernel,
) -> FlatRRSets:
    """Validate ``roots`` (an out-of-range one raises ``GraphError``) and
    run a per-chunk kernel over root slices bounding the label state (no
    roots: no chunk, and the empty batch).

    The chunks share one visited-label array, allocated once per call:
    each kernel returns the label keys it set, and exactly those cells
    are cleared for the next chunk, so a root costs its RR set's cells,
    not a fresh row of ``|V|`` bytes.
    """
    roots = _root_array(graph, roots)
    chunk = max(1, _MAX_STATE_CELLS // max(graph.n, 1))
    visited = np.zeros(min(chunk, len(roots)) * graph.n, dtype=bool)
    parts = []
    for start in range(0, len(roots), chunk):
        rr_sets, keys = chunk_kernel(roots[start : start + chunk], gen, visited)
        visited[keys] = False
        parts.append(rr_sets)
    return FlatRRSets.concatenate(parts)


def _csr_from_label_keys(
    collected: List[np.ndarray], n: int, n_roots: int
) -> Tuple[FlatRRSets, np.ndarray]:
    """Assemble per-level ``(root slot, vertex)`` labels into root CSR;
    also returns every label key (to clear from the visited array)."""
    all_keys = np.concatenate(collected)
    all_keys.sort()  # root-slot-major, then vertex ascending within root
    vertices = all_keys % n
    counts = np.bincount((all_keys - vertices) // n, minlength=n_roots)
    ptr = np.empty(n_roots + 1, dtype=np.int64)
    ptr[0] = 0
    np.cumsum(counts, out=ptr[1:])
    return FlatRRSets(ptr, vertices), all_keys


# ----------------------------------------------------------------------
# Bernoulli-edge kernel (IC)
# ----------------------------------------------------------------------
def batched_bernoulli_rr(
    graph: DiGraph, roots: Sequence[int], gen: np.random.Generator
) -> FlatRRSets:
    """Batched multi-root reverse BFS with independent per-edge coins.

    Every BFS level performs one CSR edge gather over the union of all
    live frontiers, one vectorised coin flip for the gathered edge block
    (against the graph's in-CSR ``in_prob``), and one deduplicating
    update of the flat visited-label array.  Each ``(root, vertex)`` pair
    enters a frontier at most once, so every in-edge of a visited vertex
    receives one independent coin — the deferred-decision argument
    applies per root unchanged.
    """
    return _chunked(graph, roots, gen, partial(_bernoulli_chunk, graph))


def _bernoulli_chunk(
    graph: DiGraph,
    roots: np.ndarray,
    gen: np.random.Generator,
    visited: np.ndarray,
) -> Tuple[FlatRRSets, np.ndarray]:
    """One chunk of the batched Bernoulli reverse BFS; ``visited`` is
    all False on entry (see :func:`_chunked`)."""
    n = graph.n
    in_ptr = graph.in_ptr
    in_src = graph.in_src
    in_prob = graph.in_prob
    n_roots = len(roots)

    # visited[r * n + v] <=> vertex v already reached root slot r.
    key = np.arange(n_roots, dtype=np.int64) * n + roots
    visited[key] = True
    collected = [key]
    frontier_base = key - roots  # root-slot offsets (r * n)
    frontier_vertex = roots
    # Uniform coins are pre-drawn in blocks so a BFS level costs one
    # slice, not one Generator call (the leftovers are just unused iid
    # draws — the sampled distribution is unchanged).
    coins = gen.random(_COIN_BUFFER)
    coin_pos = 0
    while True:
        starts = in_ptr.take(frontier_vertex)
        degrees = in_ptr.take(frontier_vertex + 1)
        degrees -= starts
        total = int(degrees.sum())
        if not total:
            break
        # Expand every frontier vertex's in-edge CSR range in one
        # segmented-arange pass.
        edge_index = segmented_arange(starts, degrees)
        if coin_pos + total > len(coins):
            coins = gen.random(max(_COIN_BUFFER, total))
            coin_pos = 0
        live = coins[coin_pos : coin_pos + total] < in_prob.take(edge_index)
        coin_pos += total
        key = frontier_base.repeat(degrees)[live]
        key += in_src.take(edge_index[live])
        key = key[~visited.take(key)]
        if not key.size:
            break
        if key.size > 1:
            # In-level dedup: sort + adjacent-difference flags (cheaper
            # than np.unique, which also hashes).
            key.sort()
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
        visited[key] = True
        collected.append(key)
        frontier_vertex = key % n
        frontier_base = key - frontier_vertex

    return _csr_from_label_keys(collected, n, n_roots)


# ----------------------------------------------------------------------
# Single-pick kernel (LT)
# ----------------------------------------------------------------------
def build_single_pick_keys(graph: DiGraph, weights: np.ndarray) -> np.ndarray:
    """Precompute the global searchsorted keys for single-pick draws.

    Per vertex ``v`` the LT live-edge draw picks the first in-edge whose
    cumulative weight exceeds a uniform ``d``; vectorising that over
    many walks needs one *globally sorted* key array.  Keys are
    ``v + cum_weights_within(v)``: per-vertex cumulative sums live in
    ``(0, 1]`` (clipped at 1 to absorb the ``1e-9`` validation slack), so
    adding the target vertex id makes segments monotone end to end and
    ``searchsorted(keys, v + d, side="right")`` lands on the chosen edge
    — or on ``in_ptr[v + 1]`` for a dead draw (``d >= Σ b(u, v)``).
    """
    if graph.m == 0:
        return np.empty(0, dtype=np.float64)
    in_ptr = graph.in_ptr
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    targets = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(in_ptr))
    seg_start = in_ptr[:-1]
    # cum[seg_start - 1] wraps for the first segment; np.where discards it.
    seg_base = np.where(seg_start > 0, cum[seg_start - 1], 0.0)
    within = cum - seg_base[targets]
    return targets.astype(np.float64) + np.minimum(within, 1.0)


def batched_single_pick_rr(
    graph: DiGraph,
    pick_keys: np.ndarray,
    roots: Sequence[int],
    gen: np.random.Generator,
) -> FlatRRSets:
    """Batched multi-root LT-style reverse walk.

    All θ walks advance level-locked: each live walk's current vertex
    picks its single live in-edge with one ``searchsorted`` into the
    precomputed ``pick_keys`` (see :func:`build_single_pick_keys`), with
    dead draws and revisit termination handled by masks.  A walk is a
    chain — one live vertex per root per level — so no in-level dedup is
    needed (root slots are distinct by construction).
    """
    return _chunked(graph, roots, gen, partial(_single_pick_chunk, graph, pick_keys))


def _single_pick_chunk(
    graph: DiGraph,
    pick_keys: np.ndarray,
    roots: np.ndarray,
    gen: np.random.Generator,
    visited: np.ndarray,
) -> Tuple[FlatRRSets, np.ndarray]:
    """One chunk of the batched single-pick reverse walk; ``visited`` is
    all False on entry (see :func:`_chunked`)."""
    n = graph.n
    in_ptr = graph.in_ptr
    in_src = graph.in_src
    n_roots = len(roots)

    base = np.arange(n_roots, dtype=np.int64) * n  # root-slot offsets
    key = base + roots
    visited[key] = True
    collected = [key]
    cur = roots
    coins = gen.random(max(_COIN_BUFFER, n_roots))
    coin_pos = 0
    while cur.size:
        if coin_pos + cur.size > len(coins):
            coins = gen.random(max(_COIN_BUFFER, cur.size))
            coin_pos = 0
        draws = coins[coin_pos : coin_pos + cur.size]
        coin_pos += cur.size
        # One global binary search picks every walk's live in-edge; a
        # result at/after the vertex's CSR end is a dead draw
        # (probability 1 - Σ b(u, x), matching the scalar walk).
        idx = np.searchsorted(pick_keys, cur + draws, side="right")
        alive = idx < in_ptr.take(cur + 1)
        if not alive.any():
            break
        chosen = in_src.take(idx[alive])
        base = base[alive]
        key = base + chosen
        fresh = ~visited.take(key)  # revisit = walk termination
        key = key[fresh]
        if not key.size:
            break
        visited[key] = True
        collected.append(key)
        cur = chosen[fresh]
        base = base[fresh]

    return _csr_from_label_keys(collected, n, n_roots)
