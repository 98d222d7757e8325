"""Shared fixtures: the paper's running example, small synthetic worlds."""

from __future__ import annotations

import multiprocessing
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from leaks import kbtim_shm_entries, pool_descriptors

from repro.core.irr_index import IRRIndexBuilder
from repro.core.rr_index import RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.datasets.paper_example import (
    NODE_IDS,
    paper_example_graph,
    paper_example_profiles,
    paper_example_topics,
)
from repro.experiments import EXPERIMENTS, ExperimentContext, ExperimentScale, run_all
from repro.graph.digraph import DiGraph
from repro.graph.generators import news_like, twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade

#: The randomized, larger budget of ``tests/test_serving_model.py``; CI's
#: chaos job runs it with ``--hypothesis-profile=serving-model`` (tier-1
#: runs the model's fixed, derandomized budget).
settings.register_profile(
    "serving-model", max_examples=100, stateful_step_count=50, deadline=None
)


@pytest.fixture(autouse=True)
def no_leaked_workers_or_segments():
    """Every test must reap what it spawned and unlink what it shared.

    The serving tier's lifecycle contract — after ``close()`` no child
    process, no ``kbtim-*`` shared-memory segment and no pipe, socket or
    segment mapping remains, even after ``kill -9`` or under ``spawn`` —
    checked for the whole suite, not a few hand-written tests.  Only
    what appeared *during* the test counts, so wider-scoped fixtures may
    hold resources open.
    """
    children_before = set(multiprocessing.active_children())
    shm_before = kbtim_shm_entries()
    fds_before = pool_descriptors()
    yield
    leaked = set(multiprocessing.active_children()) - children_before
    names = sorted(process.name for process in leaked)
    assert not leaked, f"test left child processes running: {names}"
    segments = kbtim_shm_entries() - shm_before
    assert not segments, f"test left /dev/shm segments behind: {sorted(segments)}"
    fds_after = pool_descriptors()
    if fds_before is not None and fds_after is not None:
        opened = Counter(fds_after) - Counter(fds_before)
        assert not opened, f"test left descriptors open: {sorted(opened)}"


@pytest.fixture(scope="session")
def served_paths(tmp_path_factory):
    """What the serving-tier tests serve: ``{"rr": path, "irr": path,
    "profiles": ProfileStore}``, an RR file and the IRR file of the same
    sample tables over a 300-node twitter-like graph."""
    policy = ThetaPolicy(epsilon=1.0, K=30, cap=200)
    graph = twitter_like(300, avg_degree=8, rng=51)
    profiles = zipf_profiles(graph.n, TopicSpace.default(8), rng=52)
    model = IndependentCascade(graph)
    path = str(tmp_path_factory.mktemp("served") / "s.rr")
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=53)
    tables = builder.sample()
    builder.build(path, tables=tables)
    irr = path[: -len(".rr")] + ".irr"
    IRRIndexBuilder(model, profiles, policy=policy, delta=25, rng=53).build(
        irr, tables=tables
    )
    return {"rr": path, "irr": irr, "profiles": profiles}


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


@pytest.fixture(scope="session")
def smoke_evaluation():
    """``run_all`` over every registered experiment at smoke scale, paid
    once per session: ``(results, exceptions)``."""
    with ExperimentContext(ExperimentScale.smoke()) as ctx:
        return run_all(ctx, [e.name for e in EXPERIMENTS])


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)
