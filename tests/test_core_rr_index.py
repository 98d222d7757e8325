"""Tests for the disk RR index (repro.core.rr_index) — Algorithms 1-2."""

import json

import numpy as np
import pytest

from repro.core.query import KBTIMQuery
from repro.core.rr_index import (
    RRIndex,
    RRIndexBuilder,
    plan_theta_q,
)
from repro.core.theta import ThetaPolicy
from repro.core.wris import wris_query
from repro.errors import CorruptIndexError, IndexError_, QueryError
from repro.propagation.triggering import GeneralTriggering
from repro.storage.segments import SegmentWriter
from repro.utils.rrsets import FlatRRSets


@pytest.fixture(scope="module")
def world(small_world_module):
    return small_world_module


@pytest.fixture(scope="module")
def small_world_module():
    # Rebuild the session fixture at module scope for index reuse.
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(300, avg_degree=8, rng=42)
    topics = TopicSpace.default(8)
    profiles = zipf_profiles(graph.n, topics, rng=44)
    return graph, topics, profiles, IndependentCascade(graph)


@pytest.fixture(scope="module")
def built_index(world, tmp_path_factory):
    graph, _topics, profiles, model = world
    path = str(tmp_path_factory.mktemp("rr") / "index.rr")
    builder = RRIndexBuilder(
        model, profiles, policy=ThetaPolicy(epsilon=1.0, K=50, cap=300), rng=5
    )
    report = builder.build(path)
    return path, report


class TestBuild:
    def test_report_fields(self, built_index):
        _path, report = built_index
        assert report.file_bytes > 0
        assert report.seconds > 0
        assert report.theta_total >= len(report.keywords)
        assert report.mean_rr_set_size > 0

    def test_skips_keywords_without_users(self, world, tmp_path):
        graph, _topics, profiles, model = world
        # All 8 default topics have users under the zipf generator; the
        # builder must index exactly those with df > 0.
        builder = RRIndexBuilder(
            model, profiles, policy=ThetaPolicy(epsilon=1.0, K=50, cap=100), rng=6
        )
        report = builder.build(str(tmp_path / "x.rr"))
        assert set(report.keywords) == {
            profiles.topics.name(t)
            for t in range(profiles.topics.size)
            if profiles.df(t) > 0
        }

    def test_theta_hat_variant_larger(self, world, tmp_path):
        graph, _topics, profiles, model = world
        policy = ThetaPolicy(epsilon=2.0, K=20, cap=None)
        std = RRIndexBuilder(model, profiles, policy=policy, rng=7).build(
            str(tmp_path / "std.rr")
        )
        hat = RRIndexBuilder(
            model, profiles, policy=policy, use_theta_hat=True, rng=7
        ).build(str(tmp_path / "hat.rr"))
        assert hat.theta_total > std.theta_total
        assert hat.file_bytes > std.file_bytes


    def test_fallback_tables_are_flat_and_reported_per_set(self, world, tmp_path):
        """The ``GeneralTriggering`` per-root fallback delivers
        ``FlatRRSets`` as the kernels do, and ``build_report``'s sizes,
        read off the CSR offsets, equal the per-set sum."""
        graph, _topics, profiles, _model = world
        opaque = GeneralTriggering(graph, lambda v, gen: graph.in_neighbors(v)[:2])
        builder = RRIndexBuilder(
            opaque, profiles, policy=ThetaPolicy(epsilon=1.0, K=20, cap=40), rng=8
        )
        tables = builder.sample()
        assert all(isinstance(t.rr_sets, FlatRRSets) for t in tables.values())
        report = builder.build(str(tmp_path / "x.rr"), tables=tables)
        sizes = [len(rr) for t in tables.values() for rr in t.rr_sets]
        assert report.theta_total == len(sizes)
        assert report.mean_rr_set_size == sum(sizes) / len(sizes) > 1


class TestOpen:
    def test_catalog_contents(self, built_index, world):
        path, report = built_index
        _g, _t, profiles, _m = world
        with RRIndex(path) as index:
            assert set(index.keywords()) == set(report.keywords)
            meta = index.catalog["music"]
            assert meta.theta == meta.n_sets
            assert meta.tf_sum == pytest.approx(profiles.tf_sum("music"))
            assert meta.phi_w == pytest.approx(profiles.phi_w("music"))

    def test_rejects_non_rr_file(self, tmp_path):
        path = str(tmp_path / "other.idx")
        with SegmentWriter(path) as writer:
            writer.add("meta", json.dumps({"format": "something-else"}).encode())
        with pytest.raises(CorruptIndexError, match="not an RR index"):
            RRIndex(path)


class TestLoads:
    """``load_keyword_csr`` on a capacity-0 cache: every call reads."""

    @staticmethod
    def sets_of(block):
        return [
            block.set_vertices[block.set_ptr[i] : block.set_ptr[i + 1]]
            for i in range(block.n_sets)
        ]

    def test_prefix_load_counts(self, built_index):
        path, _report = built_index
        with RRIndex(path, prefix_cache_keywords=0) as index:
            sets = self.sets_of(index.load_keyword_csr("music", 10))
            assert len(sets) == 10
            for rr in sets:
                assert np.all(np.diff(rr) > 0)

    def test_prefix_beyond_stored_rejected(self, built_index):
        path, _ = built_index
        with RRIndex(path, prefix_cache_keywords=0) as index:
            theta = index.catalog["music"].n_sets
            with pytest.raises(IndexError_):
                index.load_keyword_csr("music", theta + 1)

    def test_unknown_keyword_rejected(self, built_index):
        path, _ = built_index
        with RRIndex(path, prefix_cache_keywords=0) as index:
            with pytest.raises(IndexError_):
                index.load_keyword_csr("nope", 1)

    def test_inverted_lists_consistent_with_sets(self, built_index):
        path, _ = built_index
        with RRIndex(path, prefix_cache_keywords=0) as index:
            theta = index.catalog["music"].n_sets
            block = index.load_keyword_csr("music", theta)
            rebuilt = {}
            for set_id, rr in enumerate(self.sets_of(block)):
                for v in rr:
                    rebuilt.setdefault(int(v), []).append(set_id)
            stored = {}
            for v, set_id in zip(block.inv_vertices.tolist(), block.inv_sets.tolist()):
                stored.setdefault(v, []).append(set_id)
            assert stored == rebuilt

    def test_prefix_read_is_bounded(self, built_index):
        """Loading a small prefix must read fewer bytes than the region."""
        path, _ = built_index
        with RRIndex(path, prefix_cache_keywords=0) as index:
            before = index.stats.snapshot()
            index.load_keyword_csr("music", 4)
            small = index.stats.delta(before)
            before = index.stats.snapshot()
            index.load_keyword_csr("music", index.catalog["music"].n_sets)
            full = index.stats.delta(before)
            assert small.read_calls == full.read_calls == 2
            assert small.bytes_read < full.bytes_read


class TestPlanThetaQ:
    def test_single_keyword_uses_all_sets(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            _theta_q, counts, phi_q = plan_theta_q(["music"], index.catalog)
            assert counts["music"] == index.catalog["music"].n_sets
            assert phi_q == pytest.approx(index.catalog["music"].phi_w)

    def test_multi_keyword_counts_proportional(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            keywords = ["music", "book"]
            theta_q, counts, phi_q = plan_theta_q(keywords, index.catalog)
            for kw in keywords:
                p_w = index.catalog[kw].phi_w / phi_q
                assert counts[kw] <= index.catalog[kw].n_sets
                assert counts[kw] == pytest.approx(theta_q * p_w, abs=1.5)

    def test_argmin_keyword_fully_used(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            keywords = list(index.keywords())[:3]
            theta_q, counts, phi_q = plan_theta_q(keywords, index.catalog)
            ratios = {
                kw: index.catalog[kw].theta / (index.catalog[kw].phi_w / phi_q)
                for kw in keywords
            }
            tightest = min(ratios, key=ratios.get)
            assert counts[tightest] == index.catalog[tightest].n_sets

    def test_unknown_keyword(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            with pytest.raises(IndexError_):
                plan_theta_q(["nope"], index.catalog)


class TestQuery:
    def test_returns_k_seeds(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            answer = index.query(KBTIMQuery(["music", "book"], 5))
            assert len(answer.seeds) == 5
            assert answer.theta > 0
            assert answer.stats.rr_sets_loaded == answer.theta

    def test_two_reads_per_keyword(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            answer = index.query(KBTIMQuery(["music", "book", "sport"], 3))
            # one RR-prefix read + one inverted-list read per keyword
            assert answer.stats.io.read_calls == 2 * 3

    def test_k_above_K_rejected(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            with pytest.raises(QueryError):
                index.query(KBTIMQuery(["music"], 51))

    def test_mixed_form_duplicate_keyword_rejected(self, built_index):
        """A topic id next to the name it resolves to would double-load
        the keyword's block and double-count φ_w in the θ^Q plan."""
        path, _ = built_index
        with RRIndex(path) as index:
            music_id = index.catalog["music"].topic_id
            with pytest.raises(QueryError, match="duplicate keyword"):
                index.query(KBTIMQuery([music_id, "music"], 3))
            # and the clean forms still answer identically
            by_name = index.query(KBTIMQuery(["music"], 3))
            by_id = index.query(KBTIMQuery([music_id], 3))
            assert by_name.seeds == by_id.seeds

    def test_repeated_query_deterministic(self, built_index):
        path, _ = built_index
        with RRIndex(path) as index:
            q = KBTIMQuery(["music", "car"], 4)
            a = index.query(q)
            b = index.query(q)
            assert a.seeds == b.seeds
            assert a.marginal_coverages == b.marginal_coverages

    def test_quality_close_to_online_wris(self, built_index, world):
        """The index must not lose quality versus online WRIS."""
        _g, _t, profiles, model = world
        path, _ = built_index
        query = KBTIMQuery(["music", "book"], 5)
        with RRIndex(path) as index:
            offline = index.query(query)
        online = wris_query(
            model,
            profiles,
            query,
            policy=ThetaPolicy(epsilon=1.0, K=50, cap=300),
            rng=8,
        )
        from repro.propagation.simulate import estimate_spread

        weights = profiles.phi_vector(query.keywords)
        off_spread = estimate_spread(
            model, offline.seeds, n_samples=400, weights=weights, rng=9
        ).mean
        on_spread = estimate_spread(
            model, online.seeds, n_samples=400, weights=weights, rng=9
        ).mean
        assert off_spread >= 0.8 * on_spread


class TestPrefixCache:
    """Hot-prefix caching in load_keyword_csr: identical results, no
    re-decode on warm keywords, exact cold accounting when disabled."""

    QUERIES = (
        KBTIMQuery(["music", "book"], 5),
        KBTIMQuery(["music"], 3),
        KBTIMQuery(["music", "book", "sport"], 4),
        KBTIMQuery(["book"], 5),
    )

    def test_results_identical_with_and_without_cache(self, built_index):
        path, _ = built_index
        with RRIndex(path, prefix_cache_keywords=0) as cold, RRIndex(
            path
        ) as cached:
            for query in self.QUERIES * 2:  # repeats exercise warm path
                a = cold.query(query)
                b = cached.query(query)
                assert a.seeds == b.seeds
                assert a.marginal_coverages == b.marginal_coverages
                assert a.theta == b.theta
                assert a.stats.rr_sets_loaded == b.stats.rr_sets_loaded

    def test_clip_path_matches_fresh_decode(self, built_index):
        """A smaller prefix served by slicing a cached larger decode must
        equal a fresh decode of exactly that prefix."""
        path, _ = built_index
        with RRIndex(path) as index:
            kw = "music"
            n_sets = index.catalog[kw].n_sets
            small = max(1, n_sets // 3)
            full = index.load_keyword_csr(kw, n_sets)   # populates cache
            clipped = index.load_keyword_csr(kw, small)  # slicing, no I/O
            with RRIndex(path, prefix_cache_keywords=0) as cold:
                fresh = cold.load_keyword_csr(kw, small)
            assert clipped.n_sets == fresh.n_sets == small
            np.testing.assert_array_equal(clipped.set_ptr, fresh.set_ptr)
            np.testing.assert_array_equal(
                clipped.set_vertices, fresh.set_vertices
            )
            np.testing.assert_array_equal(
                clipped.inv_vertices, fresh.inv_vertices
            )
            np.testing.assert_array_equal(clipped.inv_sets, fresh.inv_sets)
            assert full.n_sets == n_sets

    def test_warm_keyword_issues_no_reads(self, built_index):
        path, _ = built_index
        query = KBTIMQuery(["music", "book"], 4)
        with RRIndex(path) as index:
            first = index.query(query)
            assert first.stats.io.read_calls == 2 * 2  # cold: 2 per keyword
            warm = index.query(query)
            assert warm.stats.io.read_calls == 0
            assert warm.seeds == first.seeds

    def test_lru_bound_respected(self, built_index):
        path, _ = built_index
        with RRIndex(path, prefix_cache_keywords=2) as index:
            for kw in ("music", "book", "sport"):
                count = index.catalog[kw].n_sets
                index.load_keyword_csr(kw, count)
            assert len(index.cache) == 2
            assert "music" not in index.cache.keys()  # oldest evicted
