"""Synthetic user-profile generators.

The paper derives 200 LDA topics from tweets / news text and represents each
user by a weighted term vector.  KB-TIM consumes only the resulting
``tf_{w,v}`` matrix, so the reproduction generates that matrix directly
(docs/ARCHITECTURE.md, "Substitutions"):

* topic popularity follows a Zipf law — a few verticals ("music",
  "software") attract many interested users while the tail is niche, which
  is what makes per-keyword index sizes (θ_w) skewed, as in the paper's
  per-keyword index segments;
* each user holds a handful of topics with preference weights normalised to
  sum to 1, matching the preference tables of Figure 1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProfileError
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace
from repro.utils.rng import RngLike, as_rng, weighted_sample
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["zipf_profiles", "zipf_weights"]


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf probabilities ``p_i ∝ (i+1)^-exponent``."""
    n = check_positive_int("n", n)
    check_positive("exponent", exponent)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def zipf_profiles(
    n_users: int,
    topics: TopicSpace,
    *,
    mean_topics_per_user: float = 3.0,
    zipf_exponent: float = 1.0,
    rng: RngLike = None,
) -> ProfileStore:
    """Generate profiles with Zipf-popular topics.

    Parameters
    ----------
    n_users:
        Number of users; every user receives at least one topic.
    topics:
        The topic space; popularity rank follows topic id order, so id 0
        ("software" in the default space) is the most popular vertical.
    mean_topics_per_user:
        Expected number of topics per user (Figure 1 shows 2-4).
    zipf_exponent:
        Popularity skew; 1.0 is the classic Zipf law.
    """
    n_users = check_positive_int("n_users", n_users)
    check_positive("mean_topics_per_user", mean_topics_per_user)
    if mean_topics_per_user > topics.size:
        raise ProfileError(
            f"mean_topics_per_user ({mean_topics_per_user}) exceeds "
            f"topic-space size ({topics.size})"
        )
    gen = as_rng(rng)
    popularity = zipf_weights(topics.size, zipf_exponent)

    entries = []
    # Number of topics per user: 1 + Poisson keeps every user targetable.
    extra = gen.poisson(max(mean_topics_per_user - 1.0, 0.0), size=n_users)
    for user in range(n_users):
        n_topics = int(min(1 + extra[user], topics.size))
        chosen = weighted_sample(gen, popularity, n_topics)
        weights = gen.exponential(1.0, size=n_topics)
        weights /= weights.sum()
        for topic_id, weight in zip(chosen, weights):
            entries.append((user, int(topic_id), float(weight)))
    return ProfileStore(n_users, topics, entries)
