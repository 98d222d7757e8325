"""Profile-store persistence.

Real deployments derive ``tf_{w,v}`` offline (the paper aggregates each
user's posts and runs topic modelling) and ship the resulting matrix to
the index builder.  This module provides the interchange format: an
**NPZ** snapshot of the sparse matrix arrays verbatim — fast and
bit-exact, written by ``repro generate`` and read by the other commands.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import ProfileError
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace

__all__ = ["save_profiles_npz", "load_profiles_npz"]

PathLike = Union[str, os.PathLike]

_NPZ_VERSION = 1


def save_profiles_npz(store: ProfileStore, path: PathLike) -> None:
    """Persist the sparse matrix as a compressed ``.npz`` snapshot."""
    users = []
    topic_ids = []
    tfs = []
    for user in range(store.n_users):
        ids, values = store.topics_of(user)
        users.extend([user] * len(ids))
        topic_ids.extend(int(t) for t in ids)
        tfs.extend(float(v) for v in values)
    np.savez_compressed(
        path,
        format_version=np.int64(_NPZ_VERSION),
        n_users=np.int64(store.n_users),
        topic_names=np.asarray(store.topics.names(), dtype=object),
        users=np.asarray(users, dtype=np.int64),
        topic_ids=np.asarray(topic_ids, dtype=np.int64),
        tfs=np.asarray(tfs, dtype=np.float64),
    )


def load_profiles_npz(path: PathLike) -> ProfileStore:
    """Load a snapshot produced by :func:`save_profiles_npz`."""
    with np.load(path, allow_pickle=True) as data:
        version = int(data["format_version"])
        if version != _NPZ_VERSION:
            raise ProfileError(
                f"unsupported profile snapshot version {version} "
                f"(expected {_NPZ_VERSION})"
            )
        topics = TopicSpace(str(name) for name in data["topic_names"])
        entries = list(
            zip(
                (int(u) for u in data["users"]),
                (int(t) for t in data["topic_ids"]),
                (float(v) for v in data["tfs"]),
            )
        )
        return ProfileStore(int(data["n_users"]), topics, entries)
