"""The paper's running example (Figure 1), reconstructed from the text.

Nodes ``a..g`` map to vertex ids 0..6.  Edges (with IC probabilities):

====  ====  =====
from  to    p(e)
====  ====  =====
e     a     1.0
e     b     0.5
e     c     0.5
g     b     0.5
b     c     0.5
b     d     0.5
f     d     0.5
====  ====  =====

This edge set reproduces the paper's Example 1/2 numbers exactly:
``E[I({e, g})] = 1 + 0.75 + 0.6875 + 0.375 + 1 + 0 + 1 = 4.8125`` with
per-node activation probabilities (a, b, c, d, e, f, g) =
(1, 0.75, 0.6875, 0.375, 1, 0, 1) — verified against brute-force live-edge
enumeration in the tests.  (Example 1's narration also mentions an ``a→b``
attempt, which contradicts the paper's own ``p({e,g} ↦ b) = 0.75``
computation; we follow the arithmetic.)

The topic tables of Figure 1 cannot all be attributed to specific nodes
from the text alone; the profiles below place the figure's seven
preference tables so that a ``({music}, 2)`` query prefers seeds from the
music-heavy cluster around ``e`` and ``b``, making the targeted-vs-
untargeted contrast of Example 3 visible.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.graph.digraph import DiGraph
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace

__all__ = [
    "NODE_NAMES",
    "NODE_IDS",
    "paper_example_graph",
    "paper_example_topics",
    "paper_example_profiles",
]

NODE_NAMES: Tuple[str, ...] = ("a", "b", "c", "d", "e", "f", "g")
NODE_IDS: Dict[str, int] = {name: i for i, name in enumerate(NODE_NAMES)}

_EDGES = (
    ("e", "a", 1.0),
    ("e", "b", 0.5),
    ("e", "c", 0.5),
    ("g", "b", 0.5),
    ("b", "c", 0.5),
    ("b", "d", 0.5),
    ("f", "d", 0.5),
)

#: Figure 1 preference tables, assigned to nodes (see module docstring).
_PROFILES: Dict[str, Dict[str, float]] = {
    "a": {"music": 0.5, "book": 0.5},
    "b": {"music": 0.6, "book": 0.2, "sport": 0.1, "car": 0.1},
    "c": {"music": 0.5, "book": 0.3, "car": 0.2},
    "d": {"music": 0.3, "book": 0.3, "sport": 0.4},
    "e": {"music": 0.5, "book": 0.5},
    "f": {"sport": 0.2, "book": 0.2, "travel": 0.6},
    "g": {"car": 1.0},
}


def paper_example_graph() -> DiGraph:
    """The 7-node Figure 1 graph with explicit edge probabilities."""
    edges = [(NODE_IDS[u], NODE_IDS[v]) for u, v, _p in _EDGES]
    probs = [p for _u, _v, p in _EDGES]
    return DiGraph.from_edges(len(NODE_NAMES), edges, probs)


def paper_example_topics() -> TopicSpace:
    """The five topics appearing in Figure 1's preference tables."""
    return TopicSpace(("music", "book", "sport", "car", "travel"))


def paper_example_profiles() -> ProfileStore:
    """Figure 1 user profiles over :func:`paper_example_topics`."""
    topics = paper_example_topics()
    return ProfileStore.from_dict(
        len(NODE_NAMES),
        topics,
        {NODE_IDS[name]: prefs for name, prefs in _PROFILES.items()},
    )
