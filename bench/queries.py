"""Seeded query generators for the benchmark workloads.

The program under test only ever sees the ``KBTIMQuery`` objects built
here; the seed is an argument of the benchmark, not of the program.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import KBTIMQuery

#: Seed budgets cycled / sampled by both generators.
KS = (10, 25, 50)
ZIPF_DISTINCT = 512
ZIPF_MAX_LENGTH = 6


def zipf_queries(names: Sequence[str], seed: int) -> List[KBTIMQuery]:
    """``ZIPF_DISTINCT`` queries with keyword popularity ∝ 1/(topic_id+1).

    ``names`` is the keyword catalog in topic-id order.  Length is uniform
    in 1..6 and k uniform in ``KS``; the skew means a handful of head
    keywords appear in most queries, so a keyword cache is reused.
    """
    rng = np.random.default_rng([seed, 0x51])
    weights = 1.0 / np.arange(1, len(names) + 1)
    weights /= weights.sum()
    queries = []
    for _ in range(ZIPF_DISTINCT):
        length = int(rng.integers(1, ZIPF_MAX_LENGTH + 1))
        k = KS[int(rng.integers(len(KS)))]
        picks = rng.choice(len(names), size=length, replace=False, p=weights)
        queries.append(KBTIMQuery([names[i] for i in picks], k))
    return queries


def scan_queries(names: Sequence[str], seed: int) -> List[KBTIMQuery]:
    """Single-keyword queries walking the catalog in order, k cycling.

    A cyclic walk over more keywords than any LRU holds evicts every
    block before it is asked for again, so every lookup is a miss.  The
    list is one full period of (keyword, k), so it can be cycled; the
    seed only picks the keyword the walk starts at.
    """
    period = len(names) * len(KS)
    return [
        KBTIMQuery([names[(seed + i) % len(names)]], KS[i % len(KS)])
        for i in range(period)
    ]
