"""Monte-Carlo spread estimation.

Used to *report* expected influence (Table 7 prints ``E[I^Q(S)]`` for the
seed sets each method returns) and to validate reverse samplers against
forward simulation.  The RIS-style query algorithms themselves never call
this — that is the whole point of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int

__all__ = ["SpreadEstimate", "estimate_spread"]


@dataclass(frozen=True)
class SpreadEstimate:
    """Monte-Carlo estimate of (possibly weighted) expected spread."""

    mean: float
    stderr: float
    n_samples: int


def estimate_spread(
    model: PropagationModel,
    seeds: Sequence[int],
    *,
    n_samples: int = 1000,
    weights: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> SpreadEstimate:
    """Estimate ``E[I(S)]`` (or ``E[I^Q(S)]`` when ``weights`` given).

    Parameters
    ----------
    model:
        Any propagation model.
    seeds:
        The seed set ``S``.
    n_samples:
        Number of independent forward cascades.
    weights:
        Optional per-vertex weights ``φ(v, Q)``; when given, each cascade
        contributes ``Σ_{v∈I(S)} φ(v, Q)`` (Eqn. 2), otherwise ``|I(S)|``.
    """
    n_samples = check_positive_int("n_samples", n_samples)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (model.graph.n,):
            raise ValueError(
                f"weights must have one entry per vertex ({model.graph.n}), "
                f"got shape {weights.shape}"
            )
    gen = as_rng(rng)

    total = 0.0
    total_sq = 0.0
    for _ in range(n_samples):
        activated = model.simulate(seeds, gen)
        value = float(weights[activated].sum()) if weights is not None else float(
            len(activated)
        )
        total += value
        total_sq += value * value

    mean = total / n_samples
    if n_samples > 1:
        variance = max(total_sq / n_samples - mean * mean, 0.0)
        stderr = math.sqrt(variance / (n_samples - 1))
    else:
        stderr = float("inf")
    return SpreadEstimate(mean=mean, stderr=stderr, n_samples=n_samples)
