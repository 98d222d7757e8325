"""User-profile substrate: topic space, tf-idf store, synthetic generators."""

from repro.profiles.topics import TopicSpace
from repro.profiles.store import ProfileStore
from repro.profiles.generators import zipf_profiles
from repro.profiles.io import load_profiles_npz, save_profiles_npz

__all__ = [
    "TopicSpace",
    "ProfileStore",
    "zipf_profiles",
    "save_profiles_npz",
    "load_profiles_npz",
]
