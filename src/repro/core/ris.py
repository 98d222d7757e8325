"""Untargeted RIS baseline (Section 2.2).

The classic Reverse Influence Set method: uniform roots, unweighted
coverage, θ from Theorem 1.  It ignores the advertisement entirely, which
is exactly the deficiency Table 8 demonstrates — RIS returns the same
global celebrities for every keyword, while WRIS/RR/IRR return
keyword-relevant seeds.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.coverage import CoverageInstance, greedy_max_coverage
from repro.core.estimation import estimate_opt_lower_bound
from repro.core.results import QueryStats, SeedSelection
from repro.core.sampler import sample_rr_sets, sample_uniform_roots
from repro.core.theta import ThetaPolicy
from repro.errors import QueryError
from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int

__all__ = ["ris_query"]


def ris_query(
    model: PropagationModel,
    k: int,
    *,
    policy: Optional[ThetaPolicy] = None,
    theta_override: Optional[int] = None,
    rng: RngLike = None,
) -> SeedSelection:
    """Find ``k`` seeds maximizing *untargeted* expected influence.

    Returns a :class:`~repro.core.results.SeedSelection` whose ``phi_q``
    is ``|V|`` (every user weighs 1), so ``estimated_influence`` estimates
    the classic ``E[I(S)]``.
    """
    k = check_positive_int("k", k)
    policy = policy if policy is not None else ThetaPolicy()
    graph = model.graph
    if k > graph.n:
        raise QueryError(f"k ({k}) exceeds |V| ({graph.n})")
    gen = as_rng(rng)
    started = time.perf_counter()

    if theta_override is not None:
        theta = int(theta_override)
        if theta < 1:
            raise QueryError(f"theta_override must be >= 1, got {theta}")
    else:
        users = np.arange(graph.n, dtype=np.int64)
        probabilities = np.full(graph.n, 1.0 / graph.n)
        weights = np.ones(graph.n)
        opt = estimate_opt_lower_bound(
            model,
            users,
            probabilities,
            float(graph.n),
            weights,
            k,
            epsilon=policy.epsilon,
            rng=gen,
        )
        theta = policy.theta_ris(graph.n, k, opt.lower_bound)

    roots = sample_uniform_roots(graph.n, theta, gen)
    rr_sets = sample_rr_sets(model, roots, gen)
    instance = CoverageInstance(graph.n, rr_sets)
    seeds, marginals = greedy_max_coverage(instance, k)

    stats = QueryStats(
        elapsed_seconds=time.perf_counter() - started,
        rr_sets_considered=theta,
        rr_sets_loaded=theta,
    )
    return SeedSelection(
        seeds=tuple(seeds),
        marginal_coverages=tuple(marginals),
        theta=theta,
        phi_q=float(graph.n),
        stats=stats,
    )
