"""Shared fixtures: the paper's running example, small synthetic worlds."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.theta import ThetaPolicy
from repro.datasets.paper_example import (
    NODE_IDS,
    paper_example_graph,
    paper_example_profiles,
    paper_example_topics,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import news_like, twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade


def _kbtim_shm_entries() -> set:
    """Names of this library's segments in /dev/shm (empty off-Linux)."""
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("kbtim-")}
    except (FileNotFoundError, NotADirectoryError):
        return set()


@pytest.fixture(autouse=True)
def no_leaked_workers_or_segments():
    """Every test must reap what it spawned and unlink what it shared.

    The serving tier's lifecycle contract — after ``close()`` no child
    process and no ``kbtim-*`` shared-memory segment remains, even after
    ``kill -9`` or under ``spawn`` — checked for the whole suite, not a
    few hand-written tests.  Only what appeared *during* the test
    counts, so wider-scoped fixtures may hold resources open.
    """
    children_before = set(multiprocessing.active_children())
    shm_before = _kbtim_shm_entries()
    yield
    leaked = set(multiprocessing.active_children()) - children_before
    names = sorted(process.name for process in leaked)
    assert not leaked, f"test left child processes running: {names}"
    segments = _kbtim_shm_entries() - shm_before
    assert not segments, f"test left /dev/shm segments behind: {sorted(segments)}"


@pytest.fixture(scope="session")
def fig1_graph() -> DiGraph:
    """The reconstructed Figure 1 graph (7 nodes, 7 edges)."""
    return paper_example_graph()


@pytest.fixture(scope="session")
def fig1_profiles():
    """Figure 1 user profiles."""
    return paper_example_profiles()


@pytest.fixture(scope="session")
def fig1_topics():
    """Figure 1 topic space."""
    return paper_example_topics()


@pytest.fixture(scope="session")
def fig1_ids():
    """Name -> vertex id mapping for the Figure 1 graph."""
    return NODE_IDS


@pytest.fixture(scope="session")
def small_twitter() -> DiGraph:
    """A 300-node twitter-like graph shared across read-only tests."""
    return twitter_like(300, avg_degree=8, rng=42)


@pytest.fixture(scope="session")
def small_news() -> DiGraph:
    """A 300-node news-like graph shared across read-only tests."""
    return news_like(300, avg_degree=3, rng=43)


@pytest.fixture(scope="session")
def small_world(small_twitter):
    """(graph, topics, profiles, model) bundle for query-level tests."""
    topics = TopicSpace.default(8)
    profiles = zipf_profiles(small_twitter.n, topics, rng=44)
    model = IndependentCascade(small_twitter)
    return small_twitter, topics, profiles, model


@pytest.fixture(scope="session")
def smoke_policy() -> ThetaPolicy:
    """A θ policy small enough for per-test index builds."""
    return ThetaPolicy(epsilon=1.0, K=50, cap=300)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)
