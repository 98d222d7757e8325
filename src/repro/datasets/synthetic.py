"""Scaled stand-ins for the paper's evaluation datasets (Table 2).

The paper samples each SNAP dataset at four sizes; both families show
*decreasing* average degree along the size sequence, which drives the
Table 5 tension between Σθ_w (grows with |V|) and mean RR-set size (falls
with density).  The scaled families preserve those degree sequences at
1/10000-ish the vertex counts (see docs/ARCHITECTURE.md, "Substitutions"):

=============  =======================  =========================
paper          sizes                    average degrees
=============  =======================  =========================
News           0.2M 0.6M 1.0M 1.4M      5.2  3.1  2.6  2.2
Twitter        10M  20M  30M  40M       76.4 56.8 46.1 38.9
scaled News    400  1200 2000 2800      5.2  3.1  2.6  2.2
scaled Twitter 1000 2000 3000 4000      19.1 14.2 11.5 9.7 (÷4)
=============  =======================  =========================

(The Twitter degrees are additionally divided by 4 to keep pure-Python
RR-set sampling tractable; the heavy-tailed *shape* is what matters for
the RR-vs-IRR comparison, not the absolute density.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.generators import news_like, twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.utils.rng import optional_seed

__all__ = [
    "Dataset",
    "news_dataset",
    "twitter_dataset",
    "NEWS_SIZES",
    "TWITTER_SIZES",
    "NEWS_AVG_DEGREES",
    "TWITTER_AVG_DEGREES",
    "DEFAULT_N_TOPICS",
]

NEWS_SIZES: Tuple[int, ...] = (400, 1200, 2000, 2800)
NEWS_AVG_DEGREES: Tuple[float, ...] = (5.2, 3.1, 2.6, 2.2)
TWITTER_SIZES: Tuple[int, ...] = (1000, 2000, 3000, 4000)
TWITTER_AVG_DEGREES: Tuple[float, ...] = (19.1, 14.2, 11.5, 9.7)

#: The paper extracts 200 topics; the scaled datasets default to 24 so a
#: full per-keyword index build stays interactive in pure Python.
DEFAULT_N_TOPICS = 24


@dataclass
class Dataset:
    """A generated evaluation dataset: graph + topics + profiles."""

    name: str
    graph: DiGraph
    topics: TopicSpace
    profiles: ProfileStore
    seed: Optional[int] = None
    _ic: Optional[IndependentCascade] = field(default=None, repr=False)
    _lt: Optional[LinearThreshold] = field(default=None, repr=False)

    @property
    def ic_model(self) -> IndependentCascade:
        """IC model with the default ``1/N_v`` probabilities (cached)."""
        if self._ic is None:
            self._ic = IndependentCascade(self.graph)
        return self._ic

    @property
    def lt_model(self) -> LinearThreshold:
        """LT model with random normalised weights (cached, seed-derived)."""
        if self._lt is None:
            weight_seed = optional_seed(self.seed, salt=0x17)
            self._lt = LinearThreshold(
                self.graph, weight_rng=weight_seed if weight_seed is not None else 0
            )
        return self._lt

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, n={self.graph.n}, m={self.graph.m}, "
            f"topics={self.topics.size})"
        )


def news_dataset(
    size_index: int = 1,
    *,
    n: Optional[int] = None,
    avg_degree: Optional[float] = None,
    n_topics: int = DEFAULT_N_TOPICS,
    seed: Optional[int] = 1015,
) -> Dataset:
    """Scaled analogue of the paper's news datasets (n0.2M..n1.4M).

    Parameters
    ----------
    size_index:
        0..3 selecting the scaled size/degree pair; or pass ``n`` (and
        optionally ``avg_degree``) explicitly.
    """
    n, avg_degree = _resolve_size(
        "news", size_index, n, avg_degree, NEWS_SIZES, NEWS_AVG_DEGREES
    )
    graph = news_like(n, avg_degree, rng=optional_seed(seed, 0x01))
    topics = TopicSpace.default(n_topics)
    profiles = zipf_profiles(n, topics, rng=optional_seed(seed, 0x02))
    return Dataset(f"news-{n}", graph, topics, profiles, seed=seed)


def twitter_dataset(
    size_index: int = 0,
    *,
    n: Optional[int] = None,
    avg_degree: Optional[float] = None,
    n_topics: int = DEFAULT_N_TOPICS,
    seed: Optional[int] = 2015,
) -> Dataset:
    """Scaled analogue of the paper's Twitter datasets (t10M..t40M)."""
    n, avg_degree = _resolve_size(
        "twitter", size_index, n, avg_degree, TWITTER_SIZES, TWITTER_AVG_DEGREES
    )
    graph = twitter_like(n, avg_degree, rng=optional_seed(seed, 0x01))
    topics = TopicSpace.default(n_topics)
    profiles = zipf_profiles(n, topics, rng=optional_seed(seed, 0x02))
    return Dataset(f"twitter-{n}", graph, topics, profiles, seed=seed)


def _resolve_size(
    family: str,
    size_index: int,
    n: Optional[int],
    avg_degree: Optional[float],
    sizes: Tuple[int, ...],
    degrees: Tuple[float, ...],
) -> Tuple[int, float]:
    if n is not None:
        if avg_degree is None:
            # Interpolate the family's degree trend for custom sizes.
            avg_degree = float(
                degrees[min(range(len(sizes)), key=lambda i: abs(sizes[i] - n))]
            )
        return n, avg_degree
    if not 0 <= size_index < len(sizes):
        raise ValueError(
            f"{family} size_index must be in [0, {len(sizes)}), got {size_index}"
        )
    return sizes[size_index], degrees[size_index]
