"""WRIS: online Weighted Reverse Influence Sampling (Section 3.2).

The baseline solution to a KB-TIM query, and the paper's stand-in for the
state-of-the-art online methods (Section 6: "WRIS ... can be considered as
a variant of the state-of-the-art RIS methods"):

1. draw θ roots with probability ``ps(v, Q) = φ(v, Q) / φ_Q`` (Eqn. 3);
2. sample one RR set per root;
3. run greedy maximum coverage for ``Q.k`` seeds.

``F_θ(S)/θ · φ_Q`` is an unbiased estimator of ``E[I^Q(S)]`` (Lemma 1) and
θ from Theorem 2 yields the ``(1 - 1/e - ε)`` guarantee.  Everything
happens at query time — which is precisely why Figures 5-7 show it two
orders of magnitude slower than the indexes.

Both hot steps ride the flat-CSR fast path: root draws and RR sampling go
through the batched samplers in :mod:`repro.core.sampler`, and the greedy
runs on the CSR-backed :class:`~repro.core.coverage.CoverageInstance`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.coverage import CoverageInstance, greedy_max_coverage
from repro.core.estimation import estimate_opt_lower_bound
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.sampler import sample_rr_sets, sample_weighted_roots
from repro.core.theta import ThetaPolicy
from repro.errors import QueryError
from repro.profiles.store import ProfileStore
from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng

__all__ = ["wris_query"]


def wris_query(
    model: PropagationModel,
    profiles: ProfileStore,
    query: KBTIMQuery,
    *,
    policy: Optional[ThetaPolicy] = None,
    theta_override: Optional[int] = None,
    rng: RngLike = None,
) -> SeedSelection:
    """Answer ``query`` by online weighted sampling.

    Parameters
    ----------
    model:
        Propagation model over the social graph.
    profiles:
        The tf-idf store defining ``φ``.
    query:
        The KB-TIM query ``(Q.T, Q.k)``.
    policy:
        θ policy (defaults to :class:`~repro.core.theta.ThetaPolicy`).
    theta_override:
        Skip OPT estimation and use this many samples directly — used by
        experiments that sweep θ explicitly.
    rng:
        Randomness for estimation and sampling.
    """
    policy = policy if policy is not None else ThetaPolicy()
    graph = model.graph
    if graph.n != profiles.n_users:
        raise QueryError(
            f"graph has {graph.n} vertices but profiles cover "
            f"{profiles.n_users} users"
        )
    if query.k > policy.K:
        raise QueryError(f"Q.k ({query.k}) exceeds the system parameter K ({policy.K})")
    gen = as_rng(rng)
    started = time.perf_counter()

    users, probabilities = profiles.query_distribution(query.keywords)
    phi_q = profiles.phi_q(query.keywords)

    if theta_override is not None:
        theta = int(theta_override)
        if theta < 1:
            raise QueryError(f"theta_override must be >= 1, got {theta}")
    else:
        weights = profiles.phi_vector(query.keywords)
        opt = estimate_opt_lower_bound(
            model,
            users,
            probabilities,
            phi_q,
            weights,
            min(query.k, graph.n),
            epsilon=policy.epsilon,
            rng=gen,
        )
        theta = policy.theta_wris(graph.n, query.k, phi_q, opt.lower_bound)

    roots = sample_weighted_roots(users, probabilities, theta, gen)
    rr_sets = sample_rr_sets(model, roots, gen)
    instance = CoverageInstance(graph.n, rr_sets)
    seeds, marginals = greedy_max_coverage(instance, query.k)

    stats = QueryStats(
        elapsed_seconds=time.perf_counter() - started,
        rr_sets_considered=theta,
        rr_sets_loaded=theta,  # online: every sampled set is materialised
    )
    return SeedSelection(
        seeds=tuple(seeds),
        marginal_coverages=tuple(marginals),
        theta=theta,
        phi_q=phi_q,
        stats=stats,
    )
