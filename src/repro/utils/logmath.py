"""Log-domain combinatorics used by the sample-size (theta) bounds.

Theorem 1/2 and Lemmas 3/4 of the paper all contain a ``ln C(|V|, k)`` term.
For the graph sizes the paper targets (up to 40M vertices) the binomial
coefficient itself overflows anything, so we work with ``lgamma``.
"""

from __future__ import annotations

import math


def log_binomial(n: int, k: int) -> float:
    """Return ``ln C(n, k)`` computed stably in the log domain.

    ``C(n, k)`` is defined as 0 combinations when ``k > n`` which has no
    logarithm; following the convention used by sample-size bounds we raise
    instead of returning ``-inf`` so callers notice the misconfiguration.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be non-negative, got n={n} k={k}")
    if k > n:
        raise ValueError(f"k must be <= n, got n={n} k={k}")
    if k in (0, n):
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


# Alias mirroring the paper's ``ln (|V| choose k)`` notation at call sites.
log_n_choose_k = log_binomial

