"""Tests for profile persistence (repro.profiles.io)."""

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.profiles.generators import zipf_profiles
from repro.profiles.io import load_profiles_npz, save_profiles_npz
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace


@pytest.fixture()
def store():
    topics = TopicSpace(("music", "book", "car"))
    return ProfileStore.from_dict(
        4,
        topics,
        {0: {"music": 0.25, "book": 0.75}, 2: {"car": 1.0}},
    )


def assert_stores_equal(a: ProfileStore, b: ProfileStore) -> None:
    assert a.n_users == b.n_users
    assert a.topics == b.topics
    assert a.nnz == b.nnz
    for user in range(a.n_users):
        ids_a, tfs_a = a.topics_of(user)
        ids_b, tfs_b = b.topics_of(user)
        assert ids_a.tolist() == ids_b.tolist()
        assert tfs_a.tolist() == pytest.approx(tfs_b.tolist())


class TestNpz:
    def test_roundtrip(self, store, tmp_path):
        path = tmp_path / "p.npz"
        save_profiles_npz(store, path)
        assert_stores_equal(load_profiles_npz(path), store)

    def test_roundtrip_generated(self, tmp_path):
        store = zipf_profiles(150, TopicSpace.default(12), rng=6)
        path = tmp_path / "p.npz"
        save_profiles_npz(store, path)
        assert_stores_equal(load_profiles_npz(path), store)

    def test_version_check(self, store, tmp_path):
        path = tmp_path / "p.npz"
        save_profiles_npz(store, path)
        data = dict(np.load(path, allow_pickle=True))
        data["format_version"] = np.int64(42)
        np.savez_compressed(path, **data)
        with pytest.raises(ProfileError, match="version"):
            load_profiles_npz(path)
