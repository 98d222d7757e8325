"""Random-number-generator plumbing.

The library never touches global random state.  Every stochastic function
accepts a ``rng`` argument that may be

* ``None`` — a fresh, OS-seeded generator is created,
* an ``int`` — used as a deterministic seed,
* a ``numpy.random.Generator`` — used as-is.

``as_rng`` normalises all three into a ``numpy.random.Generator`` so call
sites stay one-liners.  ``spawn_rngs`` derives independent child generators
for parallel or per-keyword sampling, so that adding a keyword to an index
does not perturb the streams of the others.  ``weighted_sample`` is the
dataset generators' weighted draw without replacement: exactly
``Generator.choice``'s, without its per-call overhead.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def as_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an integer seed, or an existing generator
        (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int or numpy Generator, got {type(rng)!r}")


def spawn_rngs(rng: RngLike, n: int) -> Sequence[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Children are derived via ``Generator.spawn`` (NumPy >= 1.25) or, as a
    fallback, by drawing 64-bit seeds from the parent, which keeps the same
    reproducibility contract on older NumPy versions.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    parent = as_rng(rng)
    if hasattr(parent, "spawn"):
        return list(parent.spawn(n))
    seeds = parent.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def weighted_sample(gen: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``gen.choice(len(p), size, replace=False, p=p)``, exactly.

    Returns the same indices and leaves ``gen`` in the same state: each
    round makes numpy's ``gen.random(size - found)`` draw and builds the
    cdf as numpy does (a cumsum, then a division by its last value), so
    every float agrees.  What it skips is the per-call overhead around
    that loop, which the dataset generators pay once per user: the
    re-validation of a ``p`` its caller built (sum, sign, NaN) and the
    ``np.unique`` that drops a round's repeats.  Repeats are dropped in
    draw order, keeping each first occurrence, as numpy's sorted
    ``return_index`` does.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.count_nonzero(p > 0) < size:
        raise ValueError("Fewer non-zero entries in p than size")
    found: list = []
    while len(found) < size:
        draws = gen.random(size - len(found))
        if found:  # later rounds draw from what is left
            p = p.copy()
            p[found] = 0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        found += dict.fromkeys(cdf.searchsorted(draws, side="right").tolist())
    return np.array(found, dtype=np.int64)


def derive_seed(rng: RngLike) -> int:
    """Draw a single 63-bit seed from ``rng`` (for handing to subprocesses)."""
    return int(as_rng(rng).integers(0, 2**63 - 1, dtype=np.int64))


def optional_seed(seed: Optional[int], salt: int) -> Optional[int]:
    """Combine ``seed`` with ``salt`` deterministically, preserving ``None``.

    Used by dataset builders that need several reproducible-but-distinct
    streams (graph topology, profiles, workload) from one user-facing seed.
    """
    if seed is None:
        return None
    return (int(seed) * 0x9E3779B97F4A7C15 + salt) % (2**63 - 1)
