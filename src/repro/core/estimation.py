"""Lower-bound estimation of OPT for the θ formulas.

Every θ bound divides by an OPT quantity that is itself the answer to an
NP-hard problem.  The paper "adopt[s] the weighted iterative estimation
method in [21]" (TIM); the essential property any estimator must provide is
a **lower bound**: underestimating OPT inflates θ, which keeps the
``(1 - 1/e - ε)`` guarantee intact (it can only cost space/time, never
accuracy).

This module implements an iterative-doubling greedy estimator with a
deterministic fallback:

1. *Deterministic floor*: a seed always activates itself, so
   ``OPT^{w}_k >= Σ of the k largest tf_{w,v}`` — valid with probability 1.
2. *Sampled refinement*: sample a pilot batch of weighted RR sets, run
   greedy coverage for ``k`` seeds, and convert the covered fraction into
   a spread estimate (Lemma 1); repeat with doubled batches until the
   estimate stabilises, then discount it by ``1 + epsilon`` to absorb
   sampling noise.

The returned bound is the max of the two — always positive whenever any
user carries weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.coverage import CoverageInstance, greedy_max_coverage
from repro.core.sampler import sample_weighted_roots
from repro.errors import EstimationError
from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng
from repro.utils.rrsets import FlatRRSets
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["OptEstimate", "estimate_opt_lower_bound", "deterministic_opt_floor"]

#: Doubling stops early once two consecutive estimates agree within this
#: relative tolerance.
_STABILITY_TOL = 0.1


@dataclass(frozen=True)
class OptEstimate:
    """An OPT lower bound with provenance for diagnostics."""

    lower_bound: float
    deterministic_floor: float
    sampled_estimate: Optional[float]
    pilot_samples: int


def deterministic_opt_floor(weights: np.ndarray, k: int) -> float:
    """``Σ`` of the ``k`` largest per-user weights (always a valid bound).

    ``weights[v]`` is the relevance weight the spread function assigns to
    user ``v`` (``tf_{w,v}`` for per-keyword bounds, ``φ(v, Q)`` for
    query-level bounds).  Seeds are active at step 0, so the best seed set
    is worth at least its own weight.
    """
    k = check_positive_int("k", k)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise EstimationError("weights must be one-dimensional")
    positive = weights[weights > 0]
    if len(positive) == 0:
        raise EstimationError("no user carries positive weight")
    top_k = np.sort(positive)[-k:]
    return float(top_k.sum())


def estimate_opt_lower_bound(
    model: PropagationModel,
    users: np.ndarray,
    probabilities: np.ndarray,
    total_weight: float,
    weights: np.ndarray,
    k: int,
    *,
    epsilon: float = 0.1,
    pilot_theta: int = 256,
    max_rounds: int = 4,
    rng: RngLike = None,
) -> OptEstimate:
    """Iterative-doubling greedy lower bound on the weighted OPT.

    Parameters
    ----------
    model:
        Propagation model to sample RR sets from.
    users, probabilities:
        Root distribution (``ps(v, w)`` or ``ps(v, Q)``).
    total_weight:
        Normalisation mass of the estimator (``Σ_v tf_{w,v}`` or ``φ_Q``)
        — the Lemma 1 factor turning covered fractions into spread.
    weights:
        Per-user weight vector for the deterministic floor.
    k:
        Seed-set size of the OPT quantity (1, K, or Q.k).
    epsilon:
        Discount applied to the sampled estimate.
    pilot_theta:
        Size of the first pilot batch; doubles each round.
    max_rounds:
        Number of doubling rounds (fewer once the estimate is stable).
    """
    check_positive("total_weight", total_weight)
    check_positive("epsilon", epsilon)
    check_positive_int("pilot_theta", pilot_theta)
    check_positive_int("max_rounds", max_rounds)
    gen = as_rng(rng)

    floor = deterministic_opt_floor(weights, k)

    estimate: Optional[float] = None
    theta = pilot_theta
    rr_sets = FlatRRSets.concatenate([])
    for round_ in range(max_rounds):
        # Each round tops the pilot batch up to θ, reusing the earlier sets.
        roots = sample_weighted_roots(users, probabilities, theta - len(rr_sets), gen)
        rr_sets = FlatRRSets.concatenate([rr_sets, model.sample_rr_sets(roots, gen)])
        theta *= 2
        if round_ == 0 and max_rounds == 2:
            # An estimate is read as the result (by the round that ends
            # the loop), by its own round's stability check or by the
            # next one's, and a check in the last round cannot change
            # the result.  So round 0's has a reader unless round 1 is last.
            continue
        instance = CoverageInstance(model.graph.n, rr_sets)
        _seeds, marginals = greedy_max_coverage(instance, k)
        new_estimate = sum(marginals) / len(rr_sets) * total_weight
        if (
            estimate is not None
            and estimate > 0
            and abs(new_estimate - estimate) / estimate <= _STABILITY_TOL
        ):
            estimate = new_estimate
            break
        estimate = new_estimate

    sampled = estimate / (1.0 + epsilon) if estimate is not None else None
    lower = max(floor, sampled) if sampled is not None else floor
    return OptEstimate(
        lower_bound=lower,
        deterministic_floor=floor,
        sampled_estimate=sampled,
        pilot_samples=len(rr_sets),
    )
