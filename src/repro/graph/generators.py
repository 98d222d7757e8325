"""Synthetic social-graph generators.

The paper evaluates on two SNAP datasets we cannot redistribute or fit in a
pure-Python harness at original scale (Twitter: 41.6M users / 1.4B edges;
News: 1.42M media sites).  Per the reproduction's substitution rule
(docs/ARCHITECTURE.md, "Substitutions") we generate scaled graphs that preserve the two
structural properties the evaluation actually exercises:

* **twitter_like** — dense graph with a heavy-tailed in-degree distribution
  (Figure 4b): most users follow a few hubs, so a handful of vertices appear
  in a large fraction of RR sets.  This is what makes the IRR index's
  sorted-by-influence partitions effective (Section 6.4).
* **news_like** — sparse, shallow web-link graph with average degree ~2-5
  (Figure 4a), where IRR degrades towards RR because no small prefix of
  users dominates coverage.

Both generators reproduce the paper's Table 2 quirk that average degree
*decreasesses* along the published size sequence — callers pass the target
average degree explicitly, and the dataset builders in
:mod:`repro.datasets.synthetic` supply the decreasing sequence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.utils.rng import RngLike, as_rng, weighted_sample
from repro.utils.validation import check_fraction, check_positive, check_positive_int

__all__ = ["erdos_renyi_digraph", "twitter_like", "news_like", "ring_digraph"]


def erdos_renyi_digraph(n: int, p: float, rng: RngLike = None) -> DiGraph:
    """Directed G(n, p) without self-loops.

    Used mainly by tests and property-based fuzzing; the evaluation datasets
    use the structured generators below.
    """
    n = check_positive_int("n", n)
    p = check_fraction("p", p, inclusive=True)
    gen = as_rng(rng)
    if p == 0.0:
        return DiGraph.from_edges(n, [])
    mask = gen.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DiGraph.from_edges(n, np.stack((src, dst), axis=1))


def twitter_like(
    n: int,
    avg_degree: float = 20.0,
    *,
    hub_bias: float = 1.0,
    passive_fraction: Optional[float] = None,
    rng: RngLike = None,
) -> DiGraph:
    """Heavy-tailed follower graph via directed preferential attachment.

    Vertices arrive one by one; each *active* new vertex follows a batch
    of existing vertices chosen proportionally to
    ``(popularity + 1) ** hub_bias``.  An edge ``u -> v`` means ``u``
    influences ``v`` (v follows u's content); a follow-back pass
    reciprocates a fraction of edges, giving hubs the heavy in-degree tail
    of Figure 4b.

    A ``passive_fraction`` of users follow nobody (in-degree 0 in the
    influence graph).  This models the crawl periphery of the SNAP Twitter
    samples: larger/sparser samples carry proportionally more passive
    accounts, which are *absorbing* for reverse-reachable walks — it is
    what makes the mean RR-set size fall along the Table 2 size sequence
    (Table 5) even though the weighted-cascade branching factor is
    degree-invariant.  When unset, the fraction is derived from
    ``avg_degree`` to mirror that trend.

    Parameters
    ----------
    n:
        Vertex count (>= 2).
    avg_degree:
        Target average degree ``m / n``.
    hub_bias:
        Preferential-attachment exponent; 1.0 gives the classic power law,
        larger values concentrate edges on fewer hubs.
    passive_fraction:
        Share of users with no followees, in ``[0, 0.95]``; default
        derived from ``avg_degree`` (sparser graph -> larger periphery).
    """
    n = check_positive_int("n", n)
    if n < 2:
        raise GraphError("twitter_like requires n >= 2")
    avg_degree = check_positive("avg_degree", avg_degree)
    check_positive("hub_bias", hub_bias)
    if passive_fraction is None:
        passive_fraction = float(np.clip(1.0 - avg_degree / 24.0, 0.02, 0.7))
    else:
        passive_fraction = check_fraction(
            "passive_fraction", passive_fraction, inclusive=True
        )
        if passive_fraction > 0.95:
            raise GraphError("passive_fraction must be <= 0.95")
    gen = as_rng(rng)

    # Batch size for active users, compensated so the overall average
    # degree (including the ~30% reciprocation pass and the aggregator
    # boost below) hits the target.
    active_share = max(1.0 - passive_fraction, 0.05)
    m_per_node = max(1, int(round(avg_degree / (active_share * 1.6))))
    passive = gen.random(n) < passive_fraction
    passive[0] = True  # vertex 0 has nobody to follow anyway

    popularity = np.zeros(n, dtype=np.float64)
    followers: list[int] = []
    followees: list[np.ndarray] = []
    for v in range(1, n):
        if passive[v]:
            continue
        # A few percent of accounts are "aggregators" following a
        # Pareto-boosted number of users — the source of Figure 4b's heavy
        # *in*-degree tail (in-degree = number of followees).
        if gen.random() < 0.03:
            k = int(m_per_node * 3 * (1.0 + gen.pareto(1.5)))
        else:
            k = int(gen.poisson(m_per_node))
        k = min(v, k)
        if k == 0:
            continue
        weights = (popularity[:v] + 1.0) ** hub_bias
        weights /= weights.sum()
        chosen = weighted_sample(gen, weights, k)
        popularity[chosen] += 1.0  # distinct: one increment each
        followers.append(v)
        followees.append(chosen)
    src = np.concatenate(followees) if followees else np.empty(0, dtype=np.int64)
    dst = np.repeat(np.asarray(followers, dtype=np.int64), [len(f) for f in followees])

    # Follow-back pass: reciprocating edge (u -> v) means u follows v back,
    # which gives *u* an in-edge; passive users never follow back.
    if len(src):
        back = (gen.random(len(src)) < 0.3) & ~passive[src]
        src, dst = np.concatenate((src, dst[back])), np.concatenate((dst, src[back]))

    return DiGraph.from_edges(n, _dedupe_edges(n, src, dst))


def news_like(
    n: int,
    avg_degree: float = 3.0,
    *,
    skew: float = 0.6,
    rng: RngLike = None,
) -> DiGraph:
    """Sparse web-link graph between media sites.

    Each site links to a small number of others; link targets mix a uniform
    component with a mildly popularity-biased component, yielding the short
    in-degree tail of Figure 4a (max in-degree a few thousand at 1.4M nodes,
    i.e. roughly ``n / 400``).

    Parameters
    ----------
    n:
        Vertex count.
    avg_degree:
        Target average out-degree (Table 2 reports 2.2-5.2).
    skew:
        Fraction of links drawn from the popularity-biased component.
    """
    n = check_positive_int("n", n)
    if n < 2:
        raise GraphError("news_like requires n >= 2")
    avg_degree = check_positive("avg_degree", avg_degree)
    skew = check_fraction("skew", skew, inclusive=True)
    gen = as_rng(rng)

    out_degrees = gen.poisson(avg_degree, size=n)
    out_degrees = np.clip(out_degrees, 0, n - 1)
    # A popularity score with a light tail: exponential, not power law.
    popularity = gen.exponential(1.0, size=n)
    popularity /= popularity.sum()

    src_runs: list[np.ndarray] = []
    dst_runs: list[np.ndarray] = []
    for v in range(n):
        d = int(out_degrees[v])
        if d == 0:
            continue
        biased = gen.random(d) < skew
        n_biased = int(biased.sum())
        targets = np.empty(d, dtype=np.int64)
        if n_biased:
            targets[:n_biased] = gen.choice(n, size=n_biased, p=popularity)
        if d - n_biased:
            targets[n_biased:] = gen.integers(0, n, size=d - n_biased)
        targets = targets[targets != v]
        src_runs.append(np.full(len(targets), v, dtype=np.int64))
        dst_runs.append(targets)
    if not src_runs:
        return DiGraph.from_edges(n, [])
    return DiGraph.from_edges(
        n, _dedupe_edges(n, np.concatenate(src_runs), np.concatenate(dst_runs))
    )


def ring_digraph(n: int) -> DiGraph:
    """Deterministic directed cycle ``0 -> 1 -> ... -> n-1 -> 0``.

    A minimal fixture where every influence quantity has a closed form;
    used throughout the tests.
    """
    n = check_positive_int("n", n)
    if n < 2:
        raise GraphError("ring_digraph requires n >= 2")
    return DiGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _dedupe_edges(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The ``(m, 2)`` edges ``src[i] -> dst[i]`` without repeated pairs,
    each kept where it first occurs (a stable sort finds first
    occurrences, so the edge order is deterministic)."""
    _, first = np.unique(src * n + dst, return_index=True)
    first.sort()
    return np.stack((src[first], dst[first]), axis=1)
