"""Sample-size (θ) bounds: Theorem 1, Theorem 2, Lemma 3 and Lemma 4.

All bounds share the shape

    θ >= (8 + 2ε) · mass · (ln |V| + ln C(|V|, k) + ln 2) / (OPT · ε²)

with different *mass* and *OPT* instantiations:

================  ======================  ==========================
bound             mass                    OPT
================  ======================  ==========================
Theorem 1 (RIS)   |V|                     OPT_k        (unweighted)
Theorem 2 (WRIS)  φ_Q                     OPT^{Q.T}_{Q.k}
Lemma 3 (θ̂_w)     Σ_v tf_{w,v}            OPT^{w}_1    (tf-weighted)
Lemma 4 (θ_w)     Σ_v tf_{w,v}            OPT^{w}_K    (tf-weighted)
================  ======================  ==========================

Lemma 4 is the paper's improved estimation (Section 4.3): replacing
``OPT^{w}_1`` with ``OPT^{w}_K`` shrinks θ_w by roughly ``K``×, which
Table 3 shows as a ~9× smaller index.

Paper parameters are ε = 0.1 and K = 100.  At those settings θ runs into
the hundreds of thousands — fine for the authors' C++/8-thread setup,
intractable for a pure-Python reproduction at every bench iteration.
:class:`ThetaPolicy` therefore carries an optional ``cap`` applied
*uniformly* to every method (docs/ARCHITECTURE.md, "Substitutions"), so
relative comparisons remain fair while absolute sample counts stay sane.
The uncapped formulas are exercised directly by the unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.utils.logmath import log_binomial
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "theta_ris",
    "theta_wris",
    "theta_hat_w",
    "theta_w",
    "ThetaPolicy",
]


def _base_theta(
    n_vertices: int, k: int, epsilon: float, mass: float, opt_lower_bound: float
) -> int:
    """Shared bound shape; returns the ceiling as an ``int`` sample count."""
    n_vertices = check_positive_int("n_vertices", n_vertices)
    k = check_positive_int("k", k)
    if k > n_vertices:
        raise ValueError(f"k ({k}) cannot exceed |V| ({n_vertices})")
    epsilon = check_positive("epsilon", epsilon)
    mass = check_positive("mass", mass)
    opt_lower_bound = check_positive("opt_lower_bound", opt_lower_bound)
    log_term = math.log(n_vertices) + log_binomial(n_vertices, k) + math.log(2.0)
    raw = (8.0 + 2.0 * epsilon) * mass * log_term / (opt_lower_bound * epsilon**2)
    return int(math.ceil(raw))


def theta_ris(n_vertices: int, k: int, epsilon: float, opt_lower_bound: float) -> int:
    """Theorem 1: θ for the untargeted RIS baseline (mass = |V|)."""
    return _base_theta(n_vertices, k, epsilon, float(n_vertices), opt_lower_bound)


def theta_wris(
    n_vertices: int, k: int, epsilon: float, phi_q: float, opt_lower_bound: float
) -> int:
    """Theorem 2 / Eqn. 6: θ for WRIS (mass = φ_Q, OPT = OPT^{Q.T}_{Q.k})."""
    return _base_theta(n_vertices, k, epsilon, phi_q, opt_lower_bound)


def theta_hat_w(
    n_vertices: int, K: int, epsilon: float, tf_sum_w: float, opt_w1_lower: float
) -> int:
    """Lemma 3 / Eqn. 8: per-keyword θ̂_w with the loose OPT^{w}_1 bound.

    ``opt_w1_lower`` is a lower bound on the best *single-seed* tf-weighted
    spread for keyword ``w``; ``tf_sum_w`` is ``Σ_v tf_{w,v}``.
    """
    return _base_theta(n_vertices, K, epsilon, tf_sum_w, opt_w1_lower)


def theta_w(
    n_vertices: int, K: int, epsilon: float, tf_sum_w: float, opt_wk_lower: float
) -> int:
    """Lemma 4 / Eqn. 10: improved per-keyword θ_w using OPT^{w}_K.

    Since ``OPT^{w}_K >= OPT^{w}_1`` (monotonicity), this is never larger
    than Lemma 3's θ̂_w for the same inputs, and usually ~K× smaller.
    """
    return _base_theta(n_vertices, K, epsilon, tf_sum_w, opt_wk_lower)


@dataclass(frozen=True)
class ThetaPolicy:
    """Sampling-budget policy shared by all methods of one experiment.

    Attributes
    ----------
    epsilon:
        Approximation slack ε of the ``(1 - 1/e - ε)`` guarantee.  The
        paper uses 0.1; reproduction benches default to coarser values.
    K:
        System-wide maximum seed budget (``Q.k <= K`` for all queries,
        Section 4.2).  The paper uses 100 with max ``Q.k`` of 50.
    cap:
        Optional hard upper limit on the *per-keyword offline* bounds
        θ̂_w / θ_w — it models a bounded index construction budget.
        ``None`` disables capping (paper-faithful).
    online_cap:
        Optional hard limit on the *online* bounds (Theorems 1-2, used by
        RIS/WRIS at query time).  The paper's online methods sample their
        full bound at query time — that is exactly why they are slow — so
        experiments normally leave this much higher than ``cap`` (it is a
        runaway guard, not a budget).  Defaults to ``cap`` when unset so
        single-cap configurations stay simple.
    min_theta:
        Floor guaranteeing estimators never divide by tiny counts.
    """

    epsilon: float = 0.1
    K: int = 100
    cap: Optional[int] = None
    online_cap: Optional[int] = None
    min_theta: int = 16

    def __post_init__(self) -> None:
        check_positive("epsilon", self.epsilon)
        check_positive_int("K", self.K)
        if self.cap is not None:
            check_positive_int("cap", self.cap)
        if self.online_cap is not None:
            check_positive_int("online_cap", self.online_cap)
        check_positive_int("min_theta", self.min_theta)

    def _apply(self, theta: int, *, online: bool = False) -> int:
        cap = self.cap
        if online and self.online_cap is not None:
            cap = self.online_cap
        if cap is not None:
            theta = min(theta, cap)
        return max(theta, self.min_theta)

    def theta_ris(self, n_vertices: int, k: int, opt_lower_bound: float) -> int:
        """Policy-adjusted Theorem 1 bound."""
        return self._apply(
            theta_ris(n_vertices, k, self.epsilon, opt_lower_bound), online=True
        )

    def theta_wris(self, n_vertices: int, k: int, phi_q: float, opt: float) -> int:
        """Policy-adjusted Theorem 2 bound."""
        return self._apply(
            theta_wris(n_vertices, k, self.epsilon, phi_q, opt), online=True
        )

    def effective_k_max(self, n_vertices: int) -> int:
        """``K`` clamped to the vertex count (tiny fixtures may have n < K)."""
        return min(self.K, n_vertices)

    def theta_hat_w(self, n_vertices: int, tf_sum_w: float, opt_w1: float) -> int:
        """Policy-adjusted Lemma 3 bound (K taken from the policy)."""
        return self._apply(
            theta_hat_w(
                n_vertices,
                self.effective_k_max(n_vertices),
                self.epsilon,
                tf_sum_w,
                opt_w1,
            )
        )

    def theta_w(self, n_vertices: int, tf_sum_w: float, opt_wk: float) -> int:
        """Policy-adjusted Lemma 4 bound (K taken from the policy)."""
        return self._apply(
            theta_w(
                n_vertices,
                self.effective_k_max(n_vertices),
                self.epsilon,
                tf_sum_w,
                opt_wk,
            )
        )
