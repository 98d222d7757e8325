"""Contract of the one decoded-block cache on the RR path.

``repro.core.rr_index.BlockCache`` is the only place a decoded keyword
block is retained: the reader owns it and ``KBTIMServer`` borrows it.
Its behaviour is pinned once, here, against the cache object of a real
reader (so "reads" are the reader's physical ``IOStats``), instead of
once per tier:

* a resident prefix covering the request is clipped by slicing — a hit,
  zero reads;
* a smaller resident prefix is upgraded with exactly one read (the RR
  prefix), keeping the very same inverted-pair arrays;
* the entry never shrinks, whatever order concurrent requests land in;
* eviction is LRU, refreshed by hits; capacity 0 retains nothing and
  restores the cold "2 reads per keyword" accounting;
* a miss is single-flight per keyword, for direct readers and for the
  server alike;
* reader and cache form no reference cycle, so closing and dropping a
  reader releases its blocks immediately.
"""

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.query import KBTIMQuery
from repro.core.rr_index import BlockCache, KeywordCoverageCSR, RRIndex, RRIndexBuilder
from repro.core.server import KBTIMServer
from repro.core.theta import ThetaPolicy


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(250, avg_degree=8, rng=81)
    profiles = zipf_profiles(graph.n, TopicSpace.default(6), rng=82)
    path = str(tmp_path_factory.mktemp("blockcache") / "c.rr")
    RRIndexBuilder(
        IndependentCascade(graph),
        profiles,
        policy=ThetaPolicy(epsilon=1.0, K=30, cap=200),
        rng=83,
    ).build(path)
    return path


def fetch(index, keyword, count):
    """``((block, hit), read_calls)`` of one request to a reader's cache."""
    before = index.stats.snapshot()
    result = index.cache.get(keyword, count, index.decode_block)
    return result, index.stats.delta(before).read_calls


def fake_block(count: int) -> KeywordCoverageCSR:
    """``count`` singleton RR sets; enough structure for clip_prefix."""
    ids = np.arange(count, dtype=np.int64)
    return KeywordCoverageCSR(np.arange(count + 1, dtype=np.int64), ids, ids, ids)


class TestPrefixAwareness:
    def test_covering_prefix_is_sliced_with_zero_reads(self, index_path):
        with RRIndex(index_path) as index:
            n_sets = index.catalog["music"].n_sets
            small = max(1, n_sets // 3)
            (full, hit), reads = fetch(index, "music", n_sets)
            assert (hit, reads, full.n_sets) == (False, 2, n_sets)
            (clipped, hit), reads = fetch(index, "music", small)
            assert (hit, reads, clipped.n_sets) == (True, 0, small)
            assert index.cache.keywords() == {"music": n_sets}  # not shrunk
            with RRIndex(index_path, prefix_cache_keywords=0) as cold:
                fresh = cold.load_keyword_csr("music", small)
            for name in KeywordCoverageCSR.__slots__:
                np.testing.assert_array_equal(
                    getattr(clipped, name), getattr(fresh, name)
                )

    def test_smaller_resident_prefix_upgrades_with_one_read(self, index_path):
        with RRIndex(index_path) as index:
            n_sets = index.catalog["music"].n_sets
            small = max(1, n_sets // 3)
            (partial, _hit), _reads = fetch(index, "music", small)
            (full, hit), reads = fetch(index, "music", n_sets)
            assert (hit, reads, full.n_sets) == (False, 1, n_sets)
            # Only the RR prefix was re-read: L_w is count-independent,
            # so the upgraded block carries the very same arrays.
            assert full.inv_vertices is partial.inv_vertices
            assert full.inv_sets is partial.inv_sets
            assert index.cache.keywords() == {"music": n_sets}
            (_again, hit), reads = fetch(index, "music", small)
            assert (hit, reads) == (True, 0)

    def test_entry_never_shrinks_under_racing_requests(self):
        """A small and a full request for one cold keyword, released
        together: whichever goes first, the full prefix ends up resident
        and the small one is never decoded over it."""
        for _ in range(20):
            loads = []

            def loader(keyword, count, resident):
                loads.append(count)
                return fake_block(count)

            cache = BlockCache(4)
            barrier = threading.Barrier(2)

            def ask(count):
                barrier.wait(timeout=10)
                return cache.get("kw", count, loader)[0].n_sets

            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(ask, count) for count in (3, 9)]
                assert [f.result(timeout=10) for f in futures] == [3, 9]
            assert cache.keywords() == {"kw": 9}
            # Full first (the small request is then a hit), or small first
            # and then an upgrade.
            assert loads in ([9], [3, 9])


class TestLRU:
    def test_hits_refresh_recency_and_capacity_bounds_residency(self):
        cache = BlockCache(2)

        def get(keyword, count):
            return cache.get(keyword, count, lambda kw, n, resident: fake_block(n))

        get("a", 4)
        get("b", 4)
        assert get("a", 2)[1]  # hit: "a" becomes most recent
        get("c", 4)  # evicts "b", the least recently used
        assert list(cache.keywords()) == ["a", "c"]
        assert len(cache) == 2
        assert not get("b", 4)[1]
        cache.resize(1)
        assert list(cache.keywords()) == ["b"]
        cache.clear()
        assert len(cache) == 0 and cache.keywords() == {}

    def test_capacity_zero_retains_nothing_and_keeps_cold_accounting(
        self, index_path
    ):
        query = KBTIMQuery(("music", "book"), 4)
        with RRIndex(index_path, prefix_cache_keywords=0) as index:
            for _ in range(3):  # every repetition re-reads and re-decodes
                assert index.query(query).stats.io.read_calls == 2 * 2
                assert len(index.cache) == 0
            (_block, hit), reads = fetch(index, "music", 1)
            assert (hit, reads) == (False, 2)


class TestOwnership:
    def test_dropped_reader_frees_its_blocks_without_the_cycle_collector(
        self, index_path
    ):
        """The cache holds no reference back to its reader (the loader is
        passed per call), so decoded blocks die with the last reference —
        a benchmark set-up that reopens the index does not stack them."""
        gc.disable()
        try:
            index = RRIndex(index_path)
            server = KBTIMServer(index)
            server.query(KBTIMQuery(("music",), 2))
            reader, cache = weakref.ref(index), weakref.ref(index.cache)
            index.close()
            del index, server
            assert reader() is None and cache() is None
        finally:
            gc.enable()


class TestSingleFlight:
    @pytest.mark.parametrize("entry", ["reader", "server"])
    def test_concurrent_cold_misses_decode_once(self, index_path, entry):
        """Six threads missing one cold keyword trigger one load, whether
        they enter through the reader or through a server over it."""
        query = KBTIMQuery(("music",), 3)
        with RRIndex(index_path) as index:
            server = KBTIMServer(index)
            target = index if entry == "reader" else server
            barrier = threading.Barrier(6)

            def run():
                barrier.wait(timeout=10)
                return target.query(query)

            before = index.stats.snapshot()
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(run) for _ in range(6)]
                results = [f.result(timeout=30) for f in futures]
            # One load = 2 reads (RR prefix + inverted lists), total.
            assert index.stats.delta(before).read_calls == 2
            assert len({r.seeds for r in results}) == 1
            if entry == "server":
                assert server.stats.keyword_misses == 1
                assert server.stats.keyword_hits == 5

