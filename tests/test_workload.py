"""Tests for query workloads and the replay driver (repro.datasets.workload)."""

import numpy as np
import pytest

from oracles import fixed_length_workload_reference
from repro.datasets.workload import (
    ReplayReport,
    make_mixed_workload,
    make_workload,
    poisson_arrivals,
    replay,
)
from repro.errors import QueryError
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace


@pytest.fixture(scope="module")
def profiles():
    return zipf_profiles(400, TopicSpace.default(12), rng=31)


class TestMakeWorkload:
    def test_shape(self, profiles):
        wl = make_workload(profiles, length=3, k=5, n_queries=10, rng=1)
        assert len(wl) == 10
        assert wl.length == 3 and wl.k == 5
        for q in wl:
            assert len(q.keywords) == 3 and q.k == 5

    def test_no_duplicate_keywords_within_query(self, profiles):
        wl = make_workload(profiles, length=4, k=2, n_queries=20, rng=2)
        for q in wl:
            assert len(set(q.keywords)) == 4

    def test_only_usable_topics(self, profiles):
        wl = make_workload(profiles, length=2, k=2, n_queries=30, rng=3)
        for q in wl:
            for kw in q.keywords:
                assert profiles.df(kw) > 0

    def test_popularity_bias(self, profiles):
        wl = make_workload(profiles, length=1, k=1, n_queries=400, rng=4)
        head = sum(1 for q in wl if q.keywords[0] == profiles.topics.name(0))
        tail = sum(
            1 for q in wl if q.keywords[0] == profiles.topics.name(11)
        )
        assert head > tail

    def test_deterministic(self, profiles):
        a = make_workload(profiles, length=2, k=3, n_queries=5, rng=5)
        b = make_workload(profiles, length=2, k=3, n_queries=5, rng=5)
        assert [q.keywords for q in a] == [q.keywords for q in b]

    def test_length_beyond_usable_topics_rejected(self):
        profiles = zipf_profiles(30, TopicSpace.default(3), rng=6)
        with pytest.raises(QueryError):
            make_workload(profiles, length=10, k=1)

    def test_paper_lengths_supported(self, profiles):
        # The paper sweeps |Q.T| from 1 to 6.
        for length in range(1, 7):
            wl = make_workload(profiles, length=length, k=10, n_queries=3, rng=7)
            assert all(len(q.keywords) == length for q in wl)

    @pytest.mark.parametrize("seed", [0, 5, 77])
    @pytest.mark.parametrize("length", [1, 3, 6])
    def test_one_generator_draws_both_streams(self, profiles, seed, length):
        """``make_workload`` is ``make_mixed_workload`` with one length and
        one budget, and draws what its own loop drew: choosing among one
        length or one budget consumes no random bits."""
        fixed = make_workload(profiles, length=length, k=7, n_queries=25, rng=seed)
        mixed = make_mixed_workload(
            profiles, n_queries=25, lengths=(length,), ks=(7,), rng=seed
        )
        reference = fixed_length_workload_reference(
            profiles, length, 7, 25, 1.0, np.random.default_rng(seed)
        )
        assert fixed.queries == mixed
        assert [(q.keywords, q.k) for q in mixed] == reference


class TestMixedWorkload:
    def test_mixes_lengths_and_ks(self, profiles):
        queries = make_mixed_workload(
            profiles, n_queries=120, lengths=(1, 2, 3), ks=(5, 10), rng=11
        )
        assert len(queries) == 120
        assert {len(q.keywords) for q in queries} == {1, 2, 3}
        assert {q.k for q in queries} == {5, 10}

    def test_only_usable_topics_no_dups(self, profiles):
        queries = make_mixed_workload(
            profiles, n_queries=60, lengths=(2, 4), ks=(3,), rng=12
        )
        for q in queries:
            assert len(set(q.keywords)) == len(q.keywords)
            for kw in q.keywords:
                assert profiles.df(kw) > 0

    def test_deterministic(self, profiles):
        a = make_mixed_workload(profiles, n_queries=15, rng=13, ks=(4,))
        b = make_mixed_workload(profiles, n_queries=15, rng=13, ks=(4,))
        assert [q.keywords for q in a] == [q.keywords for q in b]
        assert [q.k for q in a] == [q.k for q in b]

    def test_popularity_skew(self, profiles):
        queries = make_mixed_workload(
            profiles, n_queries=300, lengths=(1,), ks=(1,), rng=14
        )
        head = sum(1 for q in queries if q.keywords[0] == profiles.topics.name(0))
        tail = sum(
            1 for q in queries if q.keywords[0] == profiles.topics.name(11)
        )
        assert head > tail

    def test_equals_the_choice_reference(self, profiles):
        """Keywords drawn through ``weighted_sample`` leave the generator
        where ``Generator.choice`` did: the length and budget draws that
        follow each one stay the same."""
        from repro.profiles.generators import zipf_weights

        topics = profiles.topics
        usable = np.array([t for t in range(topics.size) if profiles.df(t) > 0])
        weights = zipf_weights(topics.size)[usable]
        weights = weights / weights.sum()
        lengths, ks = (1, 2, 3, 4, 5, 6), (10, 25, 50)
        gen = np.random.default_rng(17)
        expected = []
        for _ in range(200):
            length = lengths[int(gen.choice(len(lengths)))]
            k = ks[int(gen.choice(len(ks)))]
            chosen = gen.choice(usable, size=length, replace=False, p=weights)
            expected.append((tuple(topics.name(int(t)) for t in chosen), k))
        queries = make_mixed_workload(profiles, n_queries=200, rng=17)
        assert [(q.keywords, q.k) for q in queries] == expected

    def test_empty_axes_rejected(self, profiles):
        with pytest.raises(QueryError):
            make_mixed_workload(profiles, n_queries=5, lengths=())
        with pytest.raises(QueryError):
            make_mixed_workload(profiles, n_queries=5, ks=())

    def test_too_long_rejected(self):
        small = zipf_profiles(30, TopicSpace.default(3), rng=15)
        with pytest.raises(QueryError):
            make_mixed_workload(small, n_queries=5, lengths=(10,))


class TestPoissonArrivals:
    def test_shape_and_monotone(self):
        offsets = poisson_arrivals(50, rate_qps=100.0, rng=21)
        assert offsets.shape == (50,)
        assert np.all(np.diff(offsets) >= 0)
        assert offsets[0] > 0

    def test_rate_controls_density(self):
        fast = poisson_arrivals(400, rate_qps=1000.0, rng=22)
        slow = poisson_arrivals(400, rate_qps=10.0, rng=22)
        assert fast[-1] < slow[-1]

    def test_bad_rate_rejected(self):
        with pytest.raises(QueryError):
            poisson_arrivals(5, rate_qps=0.0)


class _EchoServer:
    """Minimal stand-in: replay only needs ``query``."""

    def __init__(self):
        self.seen = []

    def query(self, q):
        self.seen.append(q)
        return ("answer", q.keywords)


class TestReplay:
    def _workload(self, profiles, n=8):
        return make_mixed_workload(
            profiles, n_queries=n, lengths=(1, 2), ks=(2,), rng=31
        )

    def test_closed_loop_order_and_report(self, profiles):
        queries = self._workload(profiles)
        server = _EchoServer()
        report = replay(server, queries)
        assert isinstance(report, ReplayReport)
        assert report.n_queries == len(queries)
        assert report.results == tuple(
            ("answer", q.keywords) for q in queries
        )
        assert len(report.latencies) == len(queries)
        assert report.qps > 0
        assert report.mean_latency >= 0
        assert report.percentile_latency(99) >= report.percentile_latency(1)

    def test_threaded_results_in_workload_order(self, profiles):
        queries = self._workload(profiles, n=16)
        report = replay(_EchoServer(), queries, threads=4)
        assert report.results == tuple(
            ("answer", q.keywords) for q in queries
        )
        assert report.threads == 4

    def test_open_loop_respects_schedule(self, profiles):
        queries = self._workload(profiles, n=5)
        arrivals = np.array([0.0, 0.01, 0.02, 0.03, 0.04])
        report = replay(_EchoServer(), queries, threads=2, arrivals=arrivals)
        # the replay cannot finish before the last scheduled arrival
        assert report.elapsed_seconds >= 0.04
        assert report.n_queries == 5

    def test_arrival_validation(self, profiles):
        queries = self._workload(profiles, n=3)
        with pytest.raises(QueryError):
            replay(_EchoServer(), queries, arrivals=[0.0, 1.0])  # wrong length
        with pytest.raises(QueryError):
            replay(_EchoServer(), queries, arrivals=[0.2, 0.1, 0.3])

    def test_empty_workload(self):
        report = replay(_EchoServer(), [])
        assert report.n_queries == 0
        assert report.qps == 0.0
        assert report.mean_latency == 0.0
