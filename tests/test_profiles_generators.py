"""Tests for synthetic profile generators (repro.profiles.generators)."""

import numpy as np
import pytest

from oracles import zipf_profile_entries_reference
from repro.errors import ProfileError
from repro.profiles.generators import uniform_profiles, zipf_profiles, zipf_weights
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace


class TestZipfWeights:
    def test_normalised(self):
        assert zipf_weights(10).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(20, 1.0)
        assert np.all(np.diff(w) < 0)

    def test_exponent_controls_skew(self):
        flat = zipf_weights(10, 0.2)
        steep = zipf_weights(10, 2.0)
        assert steep[0] > flat[0]

    def test_single_topic(self):
        assert zipf_weights(1).tolist() == [1.0]


class TestZipfProfiles:
    @pytest.fixture()
    def topics(self):
        return TopicSpace.default(12)

    def test_every_user_has_a_topic(self, topics):
        store = zipf_profiles(200, topics, rng=1)
        for user in range(200):
            ids, _tfs = store.topics_of(user)
            assert len(ids) >= 1

    def test_weights_sum_to_one_per_user(self, topics):
        store = zipf_profiles(100, topics, rng=2)
        for user in range(100):
            _ids, tfs = store.topics_of(user)
            assert tfs.sum() == pytest.approx(1.0)

    def test_popular_topics_have_higher_df(self, topics):
        store = zipf_profiles(600, topics, mean_topics_per_user=3, rng=3)
        head = np.mean([store.df(t) for t in range(3)])
        tail = np.mean([store.df(t) for t in range(topics.size - 3, topics.size)])
        assert head > tail

    def test_determinism(self, topics):
        a = zipf_profiles(50, topics, rng=4)
        b = zipf_profiles(50, topics, rng=4)
        for user in range(50):
            ids_a, tfs_a = a.topics_of(user)
            ids_b, tfs_b = b.topics_of(user)
            assert ids_a.tolist() == ids_b.tolist()
            assert tfs_a.tolist() == pytest.approx(tfs_b.tolist())

    def test_mean_topics_respected_roughly(self, topics):
        store = zipf_profiles(400, topics, mean_topics_per_user=4, rng=5)
        counts = [len(store.topics_of(u)[0]) for u in range(400)]
        assert 3.0 <= np.mean(counts) <= 5.0

    def test_rejects_mean_above_space(self, topics):
        with pytest.raises(ProfileError):
            zipf_profiles(10, topics, mean_topics_per_user=100, rng=1)

    @pytest.mark.parametrize("mean,exponent,seed", [(3.0, 1.0, 6), (6.0, 2.0, 7), (1.0, 0.5, 8)])
    def test_equals_the_choice_reference(self, topics, mean, exponent, seed):
        """Topics drawn through ``weighted_sample`` are exactly the
        per-user ``Generator.choice`` draws of the reference."""
        entries = zipf_profile_entries_reference(
            300, topics.size, mean, zipf_weights(topics.size, exponent), np.random.default_rng(seed)
        )
        expected = ProfileStore(300, topics, entries)
        store = zipf_profiles(300, topics, mean_topics_per_user=mean, zipf_exponent=exponent, rng=seed)
        for user in range(300):
            ids, tfs = store.topics_of(user)
            want_ids, want_tfs = expected.topics_of(user)
            assert ids.tolist() == want_ids.tolist()
            assert tfs.tolist() == want_tfs.tolist()


class TestUniformProfiles:
    def test_fixed_topic_count(self):
        topics = TopicSpace.default(6)
        store = uniform_profiles(80, topics, topics_per_user=2, rng=6)
        for user in range(80):
            ids, tfs = store.topics_of(user)
            assert len(ids) == 2
            assert tfs.tolist() == pytest.approx([0.5, 0.5])

    def test_rejects_count_above_space(self):
        topics = TopicSpace.default(3)
        with pytest.raises(ProfileError):
            uniform_profiles(10, topics, topics_per_user=5, rng=1)

    def test_df_roughly_uniform(self):
        topics = TopicSpace.default(5)
        store = uniform_profiles(1000, topics, topics_per_user=2, rng=7)
        dfs = [store.df(t) for t in range(5)]
        assert max(dfs) < 2 * min(dfs)
