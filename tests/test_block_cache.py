"""Contract of the one decoded-value cache, under both readers.

``repro.core.catalog.BlockCache`` is the only place decoded index data is
retained: an ``RRIndex`` keeps keyword blocks in ``reader.cache``, an
``IRRIndex`` keeps ``IP_w`` maps in ``reader.cache`` and ``(IR, IL)``
partitions in a second instance, and ``KBTIMServer`` borrows
``reader.cache``.  Its behaviour is pinned once, here, against real
readers (so "reads" are the reader's physical ``IOStats``):

* a resident RR keyword is a hit for any count, zero reads;
* eviction is LRU, refreshed by hits; capacity 0 retains nothing and
  keeps the cold accounting (RR: 2 reads per keyword, of the
  ``θ^Q·p_w`` prefix only);
* a miss is single-flight per key — an RR block, an IRR ``IP_w`` map, an
  IRR partition — for direct readers and for the server alike, while an
  IRR read is issued for every lookup, hit or not;
* reader and cache form no reference cycle, so closing and dropping a
  reader releases its decoded values immediately.
"""

import gc
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import irr_index
from repro.core.catalog import BlockCache
from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import KeywordCoverageCSR, RRIndex, RRIndexBuilder
from repro.core.server import KBTIMServer
from repro.core.theta import ThetaPolicy

READERS = {"rr": RRIndex, "irr": IRRIndex}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """``{kind: path}`` of an RR and an IRR index of one sample table."""
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(250, avg_degree=8, rng=81)
    profiles = zipf_profiles(graph.n, TopicSpace.default(6), rng=82)
    model = IndependentCascade(graph)
    policy = ThetaPolicy(epsilon=1.0, K=30, cap=200)
    tmp = tmp_path_factory.mktemp("blockcache")
    built = {kind: str(tmp / f"c.{kind}") for kind in READERS}
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=83)
    tables = builder.sample()
    builder.build(built["rr"], tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=25, rng=83).build(
        built["irr"], tables=tables
    )
    return built


def lookup(index, keyword, count):
    """``((value, hit), read_calls)`` of one ``index.lookup``."""
    before = index.stats.snapshot()
    result = index.lookup(keyword, count)
    return result, index.stats.delta(before).read_calls


class TestRRLoadRule:
    def test_resident_keyword_is_a_zero_read_hit_for_any_count(self, paths):
        with RRIndex(paths["rr"]) as index:
            n_sets = index.catalog["music"].n_sets
            small = max(1, n_sets // 3)
            # A retaining reader loads the whole block on first touch,
            # whatever count asked for it.
            (block, hit), reads = lookup(index, "music", small)
            assert (hit, reads, block.n_sets) == (False, 2, n_sets)
            for count in (1, small, n_sets):
                (again, hit), reads = lookup(index, "music", count)
                assert (again, hit, reads) == (block, True, 0)
            clipped = index.load_keyword_csr("music", small)
            with RRIndex(paths["rr"], prefix_cache_keywords=0) as cold:
                fresh = cold.load_keyword_csr("music", small)
            assert clipped.n_sets == fresh.n_sets == small
            for name in KeywordCoverageCSR.__slots__:
                np.testing.assert_array_equal(
                    getattr(clipped, name), getattr(fresh, name)
                )

    def test_capacity_zero_reads_the_prefix_and_retains_nothing(self, paths):
        query = KBTIMQuery(("music", "book"), 4)
        with RRIndex(paths["rr"], prefix_cache_keywords=0) as index:
            for _ in range(3):  # every repetition re-reads and re-decodes
                assert index.query(query).stats.io.read_calls == 2 * 2
                assert len(index.cache) == 0
            (block, hit), reads = lookup(index, "music", 1)
            assert (hit, reads, block.n_sets) == (False, 2, 1)


class TestLRU:
    def test_hits_refresh_recency_and_capacity_bounds_residency(self):
        cache = BlockCache(2)
        loads = []

        def get(key):
            return cache.get(key, lambda: loads.append(key) or key.upper())

        assert get("a") == ("A", False)
        get("b")
        assert get("a") == ("A", True)  # "a" becomes most recent
        get("c")  # evicts "b", the least recently used
        assert cache.keys() == ["a", "c"]
        assert len(cache) == 2
        assert get("b") == ("B", False)
        assert loads == ["a", "b", "c", "b"]
        cache.resize(1)
        assert cache.keys() == ["b"]
        cache.clear()
        assert len(cache) == 0 and cache.keys() == []

    def test_capacity_zero_loads_every_time(self):
        cache = BlockCache(0)
        loads = []
        for _ in range(3):
            assert cache.get(("kw", 0), lambda: loads.append(1) or "v") == ("v", False)
        assert len(loads) == 3 and len(cache) == 0

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_reader_cache_is_keyed_by_keyword(self, kind, paths):
        with READERS[kind](paths[kind]) as index:
            index.query(KBTIMQuery(("music", "book"), 4))
            assert sorted(index.cache.keys()) == ["book", "music"]


@pytest.mark.parametrize("kind", sorted(READERS))
class TestOwnership:
    def test_dropped_reader_frees_its_values_without_the_cycle_collector(
        self, kind, paths
    ):
        """The caches hold no reference back to their reader (the loader
        is passed per call), so decoded values die with the last
        reference — a benchmark set-up that reopens the index does not
        stack them."""
        gc.disable()
        try:
            index = READERS[kind](paths[kind])
            server = KBTIMServer(index)
            server.query(KBTIMQuery(("music",), 2))
            assert len(index.cache) == 1
            reader, cache = weakref.ref(index), weakref.ref(index.cache)
            index.close()
            del index, server
            assert reader() is None and cache() is None
        finally:
            gc.enable()


def race(n, call):
    """Release ``n`` threads on ``call`` together; their results."""
    barrier = threading.Barrier(n)

    def run():
        barrier.wait(timeout=10)
        return call()

    with ThreadPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(run) for _ in range(n)]
        return [f.result(timeout=30) for f in futures]


class TestSingleFlight:
    @pytest.mark.parametrize("entry", ["reader", "server"])
    def test_concurrent_cold_misses_decode_once(self, paths, entry):
        """Six threads missing one cold RR keyword trigger one load, whether
        they enter through the reader or through a server over it."""
        query = KBTIMQuery(("music",), 3)
        with RRIndex(paths["rr"]) as index:
            server = KBTIMServer(index)
            target = index if entry == "reader" else server
            before = index.stats.snapshot()
            results = race(6, lambda: target.query(query))
            # One load = 2 reads (RR prefix + inverted lists), total.
            assert index.stats.delta(before).read_calls == 2
            assert len({r.seeds for r in results}) == 1
            if entry == "server":
                assert server.stats.keyword_misses == 1
                assert server.stats.keyword_hits == 5

    @pytest.mark.parametrize("unit", ["ip", "partition"])
    def test_six_threads_missing_one_irr_unit_decode_it_once(
        self, paths, unit, monkeypatch
    ):
        """Every thread issues its own read, only one decodes: the decode
        waits until all six have asked, so a cache that let racing misses
        decode side by side would count six."""
        with IRRIndex(paths["irr"]) as index:
            cache = index.cache if unit == "ip" else index._partitions
            asked, everyone_asked = [], threading.Event()
            real_get = cache.get

            def counting_get(key, load):
                asked.append(key)
                if len(asked) == 6:
                    everyone_asked.set()
                return real_get(key, load)

            decodes = []

            def counted(decode):
                def wrapper(*args):
                    decodes.append(args)
                    assert everyone_asked.wait(timeout=10)
                    return decode(*args)

                return wrapper

            monkeypatch.setattr(cache, "get", counting_get)
            if unit == "ip":
                monkeypatch.setattr(
                    IRRIndex, "_decode_ip", counted(IRRIndex._decode_ip)
                )
                call, reads_each = (lambda: index.lookup("music", 1)[0]), 1
            else:
                monkeypatch.setattr(
                    irr_index, "_decode_partition", counted(irr_index._decode_partition)
                )
                call, reads_each = (lambda: index._load_partition("music", 0)), 2
            before = index.stats.snapshot()
            values = race(6, call)
            assert len(decodes) == 1
            assert all(value is values[0] for value in values)
            assert index.stats.delta(before).read_calls == 6 * reads_each
