"""RR-set sampling drivers.

The three samplers the paper defines differ only in the *root*
distribution:

* RIS (Definition 2): roots uniform over ``V``;
* WRIS (Eqn. 3): roots ∝ ``φ(v, Q)``;
* discriminative WRIS (Section 4.1): roots ∝ ``tf_{v,w}`` per keyword.

Given roots, every sampler delegates to the propagation model's
``sample_rr_sets_batch`` — the model-agnosticism the paper inherits from
RIS — and gets the batch back as one
:class:`~repro.utils.rrsets.FlatRRSets`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng
from repro.utils.rrsets import FlatRRSets
from repro.utils.validation import check_positive_int

__all__ = [
    "sample_uniform_roots",
    "sample_weighted_roots",
    "sample_rr_sets",
    "mean_rr_set_size",
]


def sample_uniform_roots(
    n_vertices: int, theta: int, rng: RngLike = None
) -> np.ndarray:
    """θ root vertices sampled uniformly with replacement (RIS)."""
    n_vertices = check_positive_int("n_vertices", n_vertices)
    theta = check_positive_int("theta", theta)
    return as_rng(rng).integers(0, n_vertices, size=theta, dtype=np.int64)


def sample_weighted_roots(
    users: np.ndarray,
    probabilities: np.ndarray,
    theta: int,
    rng: RngLike = None,
) -> np.ndarray:
    """θ roots drawn from an explicit categorical distribution.

    ``users``/``probabilities`` come from
    :meth:`~repro.profiles.ProfileStore.query_distribution` (WRIS) or
    :meth:`~repro.profiles.ProfileStore.sampling_distribution`
    (discriminative per-keyword sampling).
    """
    theta = check_positive_int("theta", theta)
    users = np.asarray(users, dtype=np.int64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if users.shape != probabilities.shape or users.ndim != 1:
        raise ValueError("users and probabilities must be aligned 1-D arrays")
    if len(users) == 0:
        raise ValueError("cannot sample roots from an empty distribution")
    total = probabilities.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"root probabilities must sum to 1, got {total}")
    if len(probabilities) and probabilities.min() < 0:
        # Generator.choice rejected these; a negative entry would make the
        # cumsum CDF non-monotonic and silently mis-sample.
        raise ValueError("root probabilities must be non-negative")
    # One cumulative sum + binary search instead of Generator.choice, which
    # re-validates and re-normalises p on every call.  Uniform draws are
    # scaled by the CDF's own final value (not the pairwise `total`, which
    # can differ by an ulp) so a draw can never land past the last positive
    # mass and select a zero-probability trailing user; the clip is a
    # belt-and-braces guard.
    cdf = np.cumsum(probabilities)
    draws = as_rng(rng).random(theta) * cdf[-1]
    index = np.searchsorted(cdf, draws, side="right")
    return users[np.minimum(index, len(users) - 1)]


def sample_rr_sets(
    model: PropagationModel,
    roots: Sequence[int],
    rng: RngLike = None,
) -> FlatRRSets:
    """One RR set per root, in root order.

    Dispatches to the model's batched multi-root sampler
    (:meth:`~repro.propagation.base.PropagationModel.sample_rr_sets_batch`):
    IC/LT and declared triggering distributions expand all θ walks
    simultaneously with vectorised kernels, other models walk root by
    root; either way the batch comes back as one ``FlatRRSets``.
    """
    return model.sample_rr_sets_batch(roots, as_rng(rng))


def mean_rr_set_size(rr_sets: FlatRRSets) -> float:
    """Average RR-set cardinality (the Table 5 "Mean RR size" column)."""
    return rr_sets.total_size / len(rr_sets) if len(rr_sets) else 0.0
