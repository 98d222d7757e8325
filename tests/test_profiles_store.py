"""Tests for the tf-idf profile store (repro.profiles.store)."""

import math

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace


@pytest.fixture()
def topics():
    return TopicSpace(("music", "book", "car"))


@pytest.fixture()
def store(topics):
    return ProfileStore.from_dict(
        4,
        topics,
        {
            0: {"music": 0.6, "book": 0.4},
            1: {"music": 0.3},
            2: {"book": 1.0},
            # user 3 has no interests
        },
    )


class TestConstruction:
    def test_nnz(self, store):
        assert store.nnz == 4

    def test_rejects_out_of_range_user(self, topics):
        with pytest.raises(ProfileError):
            ProfileStore(2, topics, [(5, "music", 0.5)])

    def test_rejects_zero_tf(self, topics):
        with pytest.raises(ProfileError):
            ProfileStore(2, topics, [(0, "music", 0.0)])

    def test_rejects_negative_tf(self, topics):
        with pytest.raises(ProfileError):
            ProfileStore(2, topics, [(0, "music", -0.1)])

    def test_rejects_duplicate_entry(self, topics):
        with pytest.raises(ProfileError, match="duplicate"):
            ProfileStore(2, topics, [(0, "music", 0.5), (0, 0, 0.2)])

    def test_rejects_unknown_topic(self, topics):
        with pytest.raises(ProfileError):
            ProfileStore(2, topics, [(0, "jazz", 0.5)])

    def test_empty_store_allowed(self, topics):
        store = ProfileStore(3, topics, [])
        assert store.nnz == 0
        assert store.tf(0, "music") == 0.0


class TestAccessors:
    def test_tf_present_and_absent(self, store):
        assert store.tf(0, "music") == pytest.approx(0.6)
        assert store.tf(0, "car") == 0.0
        assert store.tf(3, "music") == 0.0

    def test_topics_of(self, store):
        ids, tfs = store.topics_of(0)
        assert ids.tolist() == [0, 1]
        assert tfs.tolist() == pytest.approx([0.6, 0.4])

    def test_users_of(self, store):
        users, tfs = store.users_of("music")
        assert users.tolist() == [0, 1]
        assert tfs.tolist() == pytest.approx([0.6, 0.3])

    def test_df(self, store):
        assert store.df("music") == 2
        assert store.df("book") == 2
        assert store.df("car") == 0

    def test_user_out_of_range(self, store):
        with pytest.raises(ProfileError):
            store.tf(9, "music")


class TestTfIdfMath:
    def test_idf_formula(self, store):
        assert store.idf("music") == pytest.approx(math.log1p(4 / 2))
        assert store.idf("car") == 0.0

    def test_tf_sum(self, store):
        assert store.tf_sum("music") == pytest.approx(0.9)

    def test_phi_w(self, store):
        assert store.phi_w("music") == pytest.approx(0.9 * store.idf("music"))

    def test_phi_single_user(self, store):
        expected = 0.6 * store.idf("music") + 0.4 * store.idf("book")
        assert store.phi(0, ["music", "book"]) == pytest.approx(expected)

    def test_phi_q_additive_over_keywords(self, store):
        assert store.phi_q(["music", "book"]) == pytest.approx(
            store.phi_w("music") + store.phi_w("book")
        )

    def test_phi_vector_matches_phi(self, store):
        vector = store.phi_vector(["music", "book"])
        for user in range(4):
            assert vector[user] == pytest.approx(store.phi(user, ["music", "book"]))

    def test_phi_vector_sums_to_phi_q(self, store):
        vector = store.phi_vector(["music", "book"])
        assert vector.sum() == pytest.approx(store.phi_q(["music", "book"]))

    def test_p_w_sums_to_one_over_query(self, store):
        keywords = ["music", "book"]
        total = sum(store.p_w(w, keywords) for w in keywords)
        assert total == pytest.approx(1.0)

    def test_p_w_zero_mass_query_rejected(self, store):
        with pytest.raises(ProfileError):
            store.p_w("car", ["car"])


class TestSamplingDistributions:
    def test_per_keyword_distribution(self, store):
        users, probs = store.sampling_distribution("music")
        assert users.tolist() == [0, 1]
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] == pytest.approx(0.6 / 0.9)

    def test_per_keyword_no_users_rejected(self, store):
        with pytest.raises(ProfileError):
            store.sampling_distribution("car")

    def test_query_distribution_eqn3(self, store):
        users, probs = store.query_distribution(["music", "book"])
        assert probs.sum() == pytest.approx(1.0)
        phi_q = store.phi_q(["music", "book"])
        for user, p in zip(users, probs):
            assert p == pytest.approx(
                store.phi(int(user), ["music", "book"]) / phi_q
            )

    def test_query_distribution_excludes_irrelevant(self, store):
        users, _probs = store.query_distribution(["music"])
        assert 2 not in users.tolist()
        assert 3 not in users.tolist()

    def test_relevant_users_union(self, store):
        """φ(v, Q) > 0 exactly on the users of any query keyword."""
        phi = store.phi_vector(["music", "book"])
        assert np.flatnonzero(phi).tolist() == [0, 1, 2]

    def test_no_relevant_users_rejected(self, store):
        with pytest.raises(ProfileError):
            store.query_distribution(["car"])


class TestDecompositionIdentity:
    """Eqn. 7: ps(v, Q) = Σ_w ps(v, w) · p_w — the discriminative rewrite."""

    def test_mixture_equals_query_distribution(self, store):
        keywords = ["music", "book"]
        users, probs = store.query_distribution(keywords)
        mixture = np.zeros(store.n_users)
        for w in keywords:
            p_w = store.p_w(w, keywords)
            w_users, w_probs = store.sampling_distribution(w)
            mixture[w_users] += p_w * w_probs
        for user, p in zip(users, probs):
            assert mixture[int(user)] == pytest.approx(float(p))
        assert mixture.sum() == pytest.approx(1.0)
