"""Property-based fuzzing of Theorem 3 and the end-to-end index stack.

For random graphs, profiles, partition sizes and queries, the RR and IRR
indexes built from identical sample tables must return identical seeds
and impact scores (Theorem 3) and identical influence estimates.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.irr_index import IRRIndexBuilder
from repro.core.irr_index import IRRIndex
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.graph.digraph import DiGraph
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade


@st.composite
def random_world(draw):
    """A random (graph, profiles) pair with at least one topic in use."""
    n = draw(st.integers(8, 40))
    rng_seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(rng_seed)
    n_edges = draw(st.integers(0, 3 * n))
    edges = set()
    for _ in range(n_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    graph = DiGraph.from_edges(n, sorted(edges))

    topics = TopicSpace(("t0", "t1", "t2"))
    entries = []
    for user in range(n):
        n_topics = int(rng.integers(1, 4))
        chosen = rng.choice(3, size=n_topics, replace=False)
        weights = rng.random(n_topics) + 0.05
        weights /= weights.sum()
        for t, w in zip(chosen, weights):
            entries.append((user, int(t), float(w)))
    profiles = ProfileStore(n, topics, entries)
    return graph, profiles, rng_seed


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_world(), st.integers(1, 8), st.integers(1, 3), st.data())
def test_theorem3_random_worlds(tmp_path_factory_bridge, world, k, n_keywords, data):
    graph, profiles, seed = world
    model = IndependentCascade(graph)
    policy = ThetaPolicy(epsilon=1.0, K=10, cap=60, min_theta=8)
    delta = data.draw(st.integers(1, 12))
    k = min(k, policy.K)

    tmp = tmp_path_factory_bridge.mktemp("fuzz")
    rr_path = os.path.join(str(tmp), "a.rr")
    irr_path = os.path.join(str(tmp), "a.irr")

    builder = RRIndexBuilder(model, profiles, policy=policy, rng=seed)
    tables = builder.sample()
    builder.build(rr_path, tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=delta, rng=seed).build(
        irr_path, tables=tables
    )

    names = sorted(tables)
    chosen = data.draw(
        st.lists(
            st.sampled_from(names),
            min_size=1,
            max_size=min(n_keywords, len(names)),
            unique=True,
        )
    )
    query = KBTIMQuery(tuple(chosen), k)

    with RRIndex(rr_path) as rr, IRRIndex(irr_path) as irr:
        a = rr.query(query)
        b = irr.query(query)

    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.estimated_influence == pytest.approx(b.estimated_influence)


@pytest.fixture(scope="module")
def tmp_path_factory_bridge(tmp_path_factory):
    """Expose the session tmp factory to hypothesis-driven tests."""
    return tmp_path_factory
