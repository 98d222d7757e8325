"""KB-TIM query type (Definition 3).

A query is the pair ``(Q.T, Q.k)``: an advertisement keyword set and a seed
budget.  Keywords may be topic names or ids; they are resolved against a
:class:`~repro.profiles.TopicSpace` at execution time so queries can be
constructed without holding a reference to the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Sequence, Tuple, Union

from repro.errors import IndexError_, QueryError

__all__ = ["KBTIMQuery", "resolve_keyword", "resolve_unique"]

KeywordRef = Union[int, str]


def resolve_keyword(topic_names: Mapping[int, str], ref: KeywordRef) -> str:
    """One keyword ref as a name: names pass through, ids map via the catalog.

    The single resolver behind both index readers and every serving
    pool, so a query routes and executes under the same name
    everywhere.  Names are *not* validated here — an unknown name fails
    later, at the catalog lookup of whoever executes the query.

    Raises
    ------
    IndexError_
        If ``ref`` is a topic id absent from ``topic_names``.
    """
    if isinstance(ref, str):
        return ref
    name = topic_names.get(ref)
    if name is None:
        raise IndexError_(f"topic id {ref!r} is not in the index")
    return name


def resolve_unique(
    keywords: Sequence[KeywordRef], resolve: Callable[[KeywordRef], str]
) -> List[str]:
    """Resolve keyword refs to names, rejecting post-resolution duplicates.

    :class:`KBTIMQuery` already rejects literal duplicates, but a query
    can still smuggle one keyword in twice under *mixed forms* — a topic
    id next to the name it resolves to, e.g. ``(3, "music")`` where topic
    3 *is* "music".  Executed naively, that double-loads the keyword's
    block and double-counts its relevance mass ``φ_w`` in the θ^Q plan,
    silently skewing both the answer and the I/O accounting.  Every query
    entry point therefore canonicalises through this helper.

    Parameters
    ----------
    keywords:
        The query's keyword refs (names or topic ids), in query order.
    resolve:
        Ref-to-name resolver of the executing index (a
        :func:`resolve_keyword` bound to its topic-id map); must raise
        for unknown refs.

    Returns
    -------
    The resolved names, in query order.

    Raises
    ------
    QueryError
        If two refs resolve to the same indexed keyword.
    Whatever ``resolve`` raises for an unknown ref (``IndexError_`` for
    the index readers).
    """
    resolved: List[str] = []
    seen = set()
    for kw in keywords:
        name = resolve(kw)
        if name in seen:
            detail = (
                f"{kw!r} resolves to {name!r}"
                if kw != name
                else f"{name!r} occurs again once topic ids are resolved"
            )
            raise QueryError(
                f"duplicate keyword after id resolution: {detail}; each "
                "keyword may appear only once per query"
            )
        seen.add(name)
        resolved.append(name)
    return resolved


@dataclass(frozen=True)
class KBTIMQuery:
    """A Keyword-Based Targeted Influence Maximization query.

    Attributes
    ----------
    keywords:
        The advertisement keyword set ``Q.T`` (non-empty, no duplicates).
    k:
        The seed budget ``Q.k`` (>= 1).
    """

    keywords: Tuple[KeywordRef, ...]
    k: int

    def __init__(self, keywords: Sequence[KeywordRef], k: int) -> None:
        keywords = tuple(keywords)
        if not keywords:
            raise QueryError("query keyword set must be non-empty")
        if len(set(keywords)) != len(keywords):
            raise QueryError(f"duplicate keywords in query: {keywords}")
        for kw in keywords:
            if not isinstance(kw, (int, str)) or isinstance(kw, bool):
                raise QueryError(
                    f"keywords must be topic ids or names, got {kw!r}"
                )
        if isinstance(k, bool) or not isinstance(k, int):
            raise QueryError(f"k must be an int, got {type(k).__name__}")
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "keywords", keywords)
        object.__setattr__(self, "k", k)

    def __reduce__(self):
        """Pickle through the constructor, not raw ``__dict__`` restore.

        Queries cross process boundaries in the serving tier's process
        pool; reducing to a constructor call means a tampered or
        version-skewed payload re-validates on arrival instead of
        materialising an invariant-breaking query object.
        """
        return (KBTIMQuery, (self.keywords, self.k))

    def __repr__(self) -> str:
        kw = ", ".join(repr(kw) for kw in self.keywords)
        return f"KBTIMQuery(keywords=({kw}), k={self.k})"
