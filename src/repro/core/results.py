"""Result and statistics types shared by all query algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.storage.iostats import IOStats

__all__ = ["QueryStats", "SeedSelection"]


@dataclass
class QueryStats:
    """Measured cost of answering one query.

    ``rr_sets_loaded`` is the series plotted on the right-hand panels of
    Figures 5-7; ``io.read_calls`` is the Table 6 metric.
    ``cache_hits`` / ``cache_misses`` count the query's load units — an
    RR keyword block, an IRR partition segment — by whether a decode was
    spared or paid.
    """

    elapsed_seconds: float = 0.0
    rr_sets_considered: int = 0
    rr_sets_loaded: int = 0
    partitions_loaded: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    io: IOStats = field(default_factory=IOStats)


@dataclass(frozen=True)
class SeedSelection:
    """The answer to a KB-TIM query.

    Attributes
    ----------
    seeds:
        Selected users in greedy pick order.
    marginal_coverages:
        Number of *previously uncovered* RR sets each seed covered — the
        "impact scores" of Theorem 3.  Together with ``theta`` and
        ``phi_q`` these determine the influence estimate.
    theta:
        Number of RR samples underlying the estimate (``θ`` for WRIS,
        ``θ^Q`` for the indexes).
    phi_q:
        Total relevance mass ``φ_Q`` of the query (``|V|`` for untargeted
        RIS, which weights every user 1).
    estimated_influence:
        ``(Σ marginal coverage) / θ · φ_Q`` — the unbiased estimator of
        ``E[I^Q(S)]`` from Lemma 1.
    stats:
        Measured query cost.
    """

    seeds: Tuple[int, ...]
    marginal_coverages: Tuple[int, ...]
    theta: int
    phi_q: float
    stats: QueryStats

    @property
    def estimated_influence(self) -> float:
        """Estimated expected targeted influence of the seed set."""
        if self.theta == 0:
            return 0.0
        return sum(self.marginal_coverages) / self.theta * self.phi_q

    @property
    def coverage(self) -> int:
        """Total number of RR sets covered by the seed set."""
        return sum(self.marginal_coverages)

    def __repr__(self) -> str:
        return (
            f"SeedSelection(seeds={list(self.seeds)}, "
            f"influence~{self.estimated_influence:.3f}, theta={self.theta})"
        )
