"""tf-idf profile store: the ``tf_{w,v}`` / ``idf_w`` machinery of Section 3.1.

Stores the sparse user-by-topic preference matrix in both orientations:

* row CSR (user -> topics) serves ``φ(v, Q)`` relevance lookups;
* column CSR (topic -> users) serves the per-keyword sampling distribution
  ``ps(v, w) = tf_{v,w} / Σ_v tf_{v,w}`` (Section 4.1) and the aggregates
  ``Σ_v tf_{w,v}`` that appear in the θ_w bounds (Lemmas 3 and 4).

idf follows the classic smoothed form ``idf_w = ln(1 + N / df_w)`` with
``df_w`` the number of users with a non-zero preference for ``w``.  The
algorithms are agnostic to the exact idf formula (it only rescales the
weighting function); the choice is recorded here once and used everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ProfileError
from repro.profiles.topics import TopicRef, TopicSpace

__all__ = ["ProfileStore"]


class ProfileStore:
    """Immutable sparse user-topic preference matrix with tf-idf scoring."""

    __slots__ = (
        "n_users",
        "topics",
        "_user_ptr",
        "_user_topics",
        "_user_tf",
        "_topic_ptr",
        "_topic_users",
        "_topic_tf",
        "_tf_sums",
        "_dfs",
        "_idfs",
    )

    def __init__(
        self,
        n_users: int,
        topics: TopicSpace,
        entries: Iterable[Tuple[int, TopicRef, float]],
    ) -> None:
        """Build from ``(user, topic, tf)`` triples.

        Raises :class:`~repro.errors.ProfileError` on out-of-range users,
        unknown topics, non-positive tf values, or duplicate (user, topic)
        pairs.
        """
        if n_users < 0:
            raise ProfileError(f"n_users must be >= 0, got {n_users}")
        self.n_users = int(n_users)
        self.topics = topics

        users: List[int] = []
        topic_ids: List[int] = []
        tfs: List[float] = []
        seen = set()
        for user, topic_ref, tf in entries:
            if not 0 <= user < n_users:
                raise ProfileError(f"user {user} out of range [0, {n_users})")
            topic_id = topics.id(topic_ref)
            tf = float(tf)
            if not tf > 0.0 or tf != tf or tf == float("inf"):
                raise ProfileError(
                    f"tf must be a finite positive number, got {tf} "
                    f"for user {user} topic {topics.name(topic_id)}"
                )
            key = (user, topic_id)
            if key in seen:
                raise ProfileError(
                    f"duplicate profile entry for user {user}, "
                    f"topic {topics.name(topic_id)}"
                )
            seen.add(key)
            users.append(user)
            topic_ids.append(topic_id)
            tfs.append(tf)

        user_arr = np.asarray(users, dtype=np.int64)
        topic_arr = np.asarray(topic_ids, dtype=np.int64)
        tf_arr = np.asarray(tfs, dtype=np.float64)

        self._user_ptr, self._user_topics, self._user_tf = _csr(
            n_users, user_arr, topic_arr, tf_arr
        )
        self._topic_ptr, self._topic_users, self._topic_tf = _csr(
            topics.size, topic_arr, user_arr, tf_arr
        )

        self._tf_sums = np.zeros(topics.size, dtype=np.float64)
        self._dfs = np.zeros(topics.size, dtype=np.int64)
        if len(tf_arr):
            np.add.at(self._tf_sums, topic_arr, tf_arr)
            np.add.at(self._dfs, topic_arr, 1)
        with np.errstate(divide="ignore"):
            self._idfs = np.where(
                self._dfs > 0,
                np.log1p(self.n_users / np.maximum(self._dfs, 1)),
                0.0,
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        n_users: int,
        topics: TopicSpace,
        profiles: Dict[int, Dict[TopicRef, float]],
    ) -> "ProfileStore":
        """Build from ``{user: {topic: tf}}`` (convenient for fixtures)."""
        entries = [
            (user, topic, tf)
            for user, prefs in profiles.items()
            for topic, tf in prefs.items()
        ]
        return cls(n_users, topics, entries)

    # ------------------------------------------------------------------
    # per-user accessors
    # ------------------------------------------------------------------
    def tf(self, user: int, topic: TopicRef) -> float:
        """Preference weight ``tf_{w,v}`` (0 when absent)."""
        self._check_user(user)
        topic_id = self.topics.id(topic)
        start, stop = self._user_ptr[user], self._user_ptr[user + 1]
        block = self._user_topics[start:stop]
        pos = np.searchsorted(block, topic_id)
        if pos < len(block) and block[pos] == topic_id:
            return float(self._user_tf[start + pos])
        return 0.0

    def topics_of(self, user: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(topic_ids, tf_values)`` for one user (views, do not mutate)."""
        self._check_user(user)
        start, stop = self._user_ptr[user], self._user_ptr[user + 1]
        return self._user_topics[start:stop], self._user_tf[start:stop]

    def phi(self, user: int, keywords: Sequence[TopicRef]) -> float:
        """Relevance ``φ(v, Q) = Σ_{w∈Q.T} tf_{w,v} · idf_w`` (Eqn. 1)."""
        topic_ids = self.topics.ids(keywords)
        total = 0.0
        for topic_id in topic_ids:
            total += self.tf(user, topic_id) * float(self._idfs[topic_id])
        return total

    def phi_vector(self, keywords: Sequence[TopicRef]) -> np.ndarray:
        """``φ(v, Q)`` for every user as a dense length-``n_users`` array.

        Dense is fine: this is only materialised by the exact/simulation
        paths and tests, never by the index query path.
        """
        topic_ids = self.topics.ids(keywords)
        out = np.zeros(self.n_users, dtype=np.float64)
        for topic_id in topic_ids:
            start, stop = self._topic_ptr[topic_id], self._topic_ptr[topic_id + 1]
            out[self._topic_users[start:stop]] += (
                self._topic_tf[start:stop] * float(self._idfs[topic_id])
            )
        return out

    # ------------------------------------------------------------------
    # per-topic accessors (Section 4.1 notation)
    # ------------------------------------------------------------------
    def users_of(self, topic: TopicRef) -> Tuple[np.ndarray, np.ndarray]:
        """``(user_ids, tf_values)`` of users with non-zero tf for ``topic``."""
        topic_id = self.topics.id(topic)
        start, stop = self._topic_ptr[topic_id], self._topic_ptr[topic_id + 1]
        return self._topic_users[start:stop], self._topic_tf[start:stop]

    def df(self, topic: TopicRef) -> int:
        """Document frequency: number of users with non-zero tf for ``topic``."""
        return int(self._dfs[self.topics.id(topic)])

    def idf(self, topic: TopicRef) -> float:
        """Inverse document frequency ``idf_w`` (0 for unused topics)."""
        return float(self._idfs[self.topics.id(topic)])

    def tf_sum(self, topic: TopicRef) -> float:
        """``Σ_v tf_{w,v}`` — appears in the θ_w bounds (Lemmas 3/4)."""
        return float(self._tf_sums[self.topics.id(topic)])

    def phi_w(self, topic: TopicRef) -> float:
        """``φ_w = Σ_v tf_{w,v} · idf_w`` (Table 1)."""
        topic_id = self.topics.id(topic)
        return float(self._tf_sums[topic_id] * self._idfs[topic_id])

    def phi_q(self, keywords: Sequence[TopicRef]) -> float:
        """``φ_Q = Σ_{w∈Q.T} φ_w`` — total relevance mass of a query."""
        return sum(self.phi_w(topic) for topic in self.topics.ids(keywords))

    def p_w(self, topic: TopicRef, keywords: Sequence[TopicRef]) -> float:
        """``p_w = φ_w / φ_Q``: the per-keyword share of RR sets (Table 1)."""
        phi_q = self.phi_q(keywords)
        if phi_q <= 0.0:
            raise ProfileError(
                "query keywords have zero total relevance; no user is targeted"
            )
        return self.phi_w(topic) / phi_q

    def sampling_distribution(self, topic: TopicRef) -> Tuple[np.ndarray, np.ndarray]:
        """Per-keyword root distribution ``ps(v, w) = tf_{v,w} / Σ_v tf_{v,w}``.

        Returns ``(user_ids, probabilities)``; probabilities sum to 1.
        Raises when no user carries the topic (nothing to sample).
        """
        users, tfs = self.users_of(topic)
        if len(users) == 0:
            raise ProfileError(
                f"topic {self.topics.name(self.topics.id(topic))!r} "
                "has no relevant users"
            )
        return users, tfs / tfs.sum()

    def query_distribution(
        self, keywords: Sequence[TopicRef]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query-level root distribution ``ps(v, Q) = φ(v, Q) / φ_Q`` (Eqn. 3).

        Returns ``(user_ids, probabilities)`` over users with ``φ(v,Q) > 0``.
        """
        phi = self.phi_vector(keywords)
        users = np.nonzero(phi)[0]
        if len(users) == 0:
            raise ProfileError("no user is relevant to the query keywords")
        weights = phi[users]
        return users, weights / weights.sum()

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (user, topic) preference entries."""
        return int(len(self._user_topics))

    def __repr__(self) -> str:
        return (
            f"ProfileStore(n_users={self.n_users}, "
            f"topics={self.topics.size}, nnz={self.nnz})"
        )

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.n_users:
            raise ProfileError(f"user {user} out of range [0, {self.n_users})")


def _csr(
    n_rows: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = np.lexsort((cols, rows))
    rows_sorted = rows[order]
    counts = np.bincount(rows_sorted, minlength=n_rows)
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, cols[order], values[order]
