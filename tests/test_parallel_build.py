"""Tests for parallel index construction (the paper's 8-thread build)."""

import numpy as np
import pytest

from repro.core.offline import sample_keyword_tables
from repro.core.rr_index import RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.errors import IndexError_
from repro.graph.generators import twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace
from repro.propagation.base import PropagationModel
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold


@pytest.fixture(scope="module")
def world():
    graph = twitter_like(150, avg_degree=6, rng=41)
    profiles = zipf_profiles(graph.n, TopicSpace.default(5), rng=42)
    return graph, profiles, IndependentCascade(graph)


POLICY = ThetaPolicy(epsilon=1.0, K=20, cap=80)


class ClosureModel(PropagationModel):
    """IC's sampler behind a lambda: a working model that cannot be
    pickled, so it cannot be shipped to a sampling process."""

    name = "closure"

    def __init__(self, graph):
        super().__init__(graph)
        ic = IndependentCascade(graph)
        self._draw = lambda roots, rng: ic.sample_rr_sets(roots, rng)
        self._simulate = ic.simulate

    def sample_rr_sets(self, roots, rng=None):
        return self._draw(roots, rng)

    def simulate(self, seeds, rng=None):
        return self._simulate(seeds, rng)


def assert_tables_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert a[name].theta == b[name].theta
        assert a[name].opt_lower_bound == b[name].opt_lower_bound
        assert len(a[name].rr_sets) == len(b[name].rr_sets)
        for rr_a, rr_b in zip(a[name].rr_sets, b[name].rr_sets):
            assert np.array_equal(rr_a, rr_b)


class TestWorkerEquivalence:
    def test_parallel_bit_identical_to_serial(self, world):
        _g, profiles, model = world
        serial = sample_keyword_tables(model, profiles, policy=POLICY, rng=7)
        parallel = sample_keyword_tables(
            model, profiles, policy=POLICY, rng=7, workers=3
        )
        assert_tables_equal(serial, parallel)

    def test_worker_count_invariance(self, world):
        _g, profiles, model = world
        two = sample_keyword_tables(model, profiles, policy=POLICY, rng=9, workers=2)
        four = sample_keyword_tables(model, profiles, policy=POLICY, rng=9, workers=4)
        assert_tables_equal(two, four)

    def test_lt_model_parallel(self, world):
        graph, profiles, _ic = world
        lt = LinearThreshold(graph, weight_rng=1)
        serial = sample_keyword_tables(
            lt, profiles, keywords=["music"], policy=POLICY, rng=11
        )
        parallel = sample_keyword_tables(
            lt, profiles, keywords=["music"], policy=POLICY, rng=11, workers=2
        )
        assert_tables_equal(serial, parallel)

    def test_builder_plumbs_workers(self, world, tmp_path):
        _g, profiles, model = world
        a = RRIndexBuilder(model, profiles, policy=POLICY, rng=13).build(
            str(tmp_path / "serial.rr")
        )
        b = RRIndexBuilder(
            model, profiles, policy=POLICY, workers=2, rng=13
        ).build(str(tmp_path / "parallel.rr"))
        assert a.theta_total == b.theta_total
        assert a.mean_rr_set_size == b.mean_rr_set_size
        # Identical samples -> byte-identical index payloads.
        assert a.file_bytes == b.file_bytes


class TestValidation:
    def test_zero_workers_rejected(self, world):
        _g, profiles, model = world
        with pytest.raises(IndexError_):
            sample_keyword_tables(model, profiles, policy=POLICY, workers=0)

    def test_unpicklable_model_clean_error(self, world):
        graph, profiles, _ic = world
        closure_model = ClosureModel(graph)
        with pytest.raises(IndexError_, match="picklable"):
            sample_keyword_tables(
                closure_model, profiles, policy=POLICY, workers=2
            )
        # The serial path never pickles the model.
        assert sample_keyword_tables(
            closure_model, profiles, keywords=["music"], policy=POLICY, rng=3
        )
