"""WRIS: online Weighted Reverse Influence Sampling (Section 3.2), and
its unit-weight case, the untargeted RIS baseline (Section 2.2).

The baseline solution to a KB-TIM query, and the paper's stand-in for the
state-of-the-art online methods (Section 6: "WRIS ... can be considered as
a variant of the state-of-the-art RIS methods"):

1. draw θ roots with probability ``ps(v, Q) = φ(v, Q) / φ_Q`` (Eqn. 3);
2. sample one RR set per root;
3. run greedy maximum coverage for ``Q.k`` seeds.

``F_θ(S)/θ · φ_Q`` is an unbiased estimator of ``E[I^Q(S)]`` (Lemma 1) and
θ from Theorem 2 yields the ``(1 - 1/e - ε)`` guarantee.  Everything
happens at query time — which is precisely why Figures 5-7 show it two
orders of magnitude slower than the indexes.  RIS runs the same body
with every user weighing 1: uniform roots and θ from Theorem 1.

Both hot steps ride the flat-CSR fast path: roots come from
:mod:`repro.core.sampler`, RR sets from the model's batched
``sample_rr_sets``, and the greedy
runs on the CSR-backed :class:`~repro.core.coverage.CoverageInstance`.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.coverage import CoverageInstance, greedy_max_coverage
from repro.core.estimation import estimate_opt_lower_bound
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.sampler import sample_uniform_roots, sample_weighted_roots
from repro.core.theta import ThetaPolicy
from repro.errors import QueryError
from repro.profiles.store import ProfileStore
from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int

__all__ = ["ris_query", "wris_query"]


def _sampled_selection(
    model: PropagationModel,
    k: int,
    phi_q: float,
    users: np.ndarray,
    probabilities: np.ndarray,
    weights: np.ndarray,
    theta_rule: Callable[[float], int],
    draw_roots: Callable[[int, np.random.Generator], np.ndarray],
    *,
    policy: ThetaPolicy,
    theta_override: Optional[int],
    rng: RngLike,
) -> SeedSelection:
    """The online body: OPT estimate → θ (``theta_rule`` of the bound, or
    ``theta_override``) → ``draw_roots`` → RR sets → greedy → answer."""
    gen = as_rng(rng)
    started = time.perf_counter()
    n = model.graph.n
    if theta_override is not None:
        theta = int(theta_override)
        if theta < 1:
            raise QueryError(f"theta_override must be >= 1, got {theta}")
    else:
        opt = estimate_opt_lower_bound(
            model,
            users,
            probabilities,
            phi_q,
            weights,
            min(k, n),
            epsilon=policy.epsilon,
            rng=gen,
        )
        theta = theta_rule(opt.lower_bound)

    rr_sets = model.sample_rr_sets(draw_roots(theta, gen), gen)
    seeds, marginals = greedy_max_coverage(CoverageInstance(n, rr_sets), k)
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
    n = model.graph.n
    if n != profiles.n_users:
        raise QueryError(
            f"graph has {n} vertices but profiles cover {profiles.n_users} users"
        )
    if query.k > policy.K:
        raise QueryError(f"Q.k ({query.k}) exceeds the system parameter K ({policy.K})")
    users, probabilities = profiles.query_distribution(query.keywords)
    phi_q = profiles.phi_q(query.keywords)
    return _sampled_selection(
        model,
        query.k,
        phi_q,
        users,
        probabilities,
        profiles.phi_vector(query.keywords),
        lambda opt: policy.theta_wris(n, query.k, phi_q, opt),
        lambda theta, gen: sample_weighted_roots(users, probabilities, theta, gen),
        policy=policy,
        theta_override=theta_override,
        rng=rng,
    )


def ris_query(
    model: PropagationModel,
    k: int,
    *,
    policy: Optional[ThetaPolicy] = None,
    theta_override: Optional[int] = None,
    rng: RngLike = None,
) -> SeedSelection:
    """Find ``k`` seeds maximizing *untargeted* expected influence.

    The classic Reverse Influence Set method: uniform roots, unweighted
    coverage, θ from Theorem 1.  It ignores the advertisement entirely,
    which is exactly the deficiency Table 8 demonstrates — RIS returns
    the same global celebrities for every keyword, while WRIS/RR/IRR
    return keyword-relevant seeds.  Returns a
    :class:`~repro.core.results.SeedSelection` whose ``phi_q`` is
    ``|V|`` (every user weighs 1), so ``estimated_influence`` estimates
    the classic ``E[I(S)]``.  Other parameters as :func:`wris_query`.
    """
    k = check_positive_int("k", k)
    policy = policy if policy is not None else ThetaPolicy()
    n = model.graph.n
    if k > n:
        raise QueryError(f"k ({k}) exceeds |V| ({n})")
    return _sampled_selection(
        model,
        k,
        float(n),
        np.arange(n, dtype=np.int64),
        np.full(n, 1.0 / n),
        np.ones(n),
        lambda opt: policy.theta_ris(n, k, opt),
        lambda theta, gen: sample_uniform_roots(n, theta, gen),
        policy=policy,
        theta_override=theta_override,
        rng=rng,
    )
