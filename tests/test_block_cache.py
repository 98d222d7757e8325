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
  ``θ^Q·p_w`` prefix only); a load that raises admits nothing;
* threads meet only at a server, which serialises them, so one cold unit
  — an RR block, an IRR ``IP_w`` map, an IRR partition — decodes once
  however many threads miss it together, while an IRR read is issued for
  every lookup, hit or not;
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

    def test_failed_load_admits_nothing_and_the_next_get_loads_again(self):
        cache = BlockCache(2)
        loads = []

        def failing():
            loads.append("fail")
            raise OSError("short read")

        with pytest.raises(OSError):
            cache.get("a", failing)
        assert len(cache) == 0
        assert cache.get("a", lambda: loads.append("ok") or "A") == ("A", False)
        assert cache.get("a", failing) == ("A", True)
        assert loads == ["fail", "ok"]

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


#: What decodes each cold unit on a miss: ``(owner, attribute)``.
UNIT_DECODES = {
    "rr-block": (RRIndex, "decode_block"),
    "irr-first": (IRRIndex, "_decode_first"),
    "irr-segment": (irr_index, "_decode_segment"),
}


class TestSingleFlight:
    @pytest.mark.parametrize("unit", sorted(UNIT_DECODES))
    def test_six_threads_missing_one_cold_unit_through_one_server_decode_it_once(
        self, paths, unit, monkeypatch
    ):
        """Six threads send one cold query to one server: its units (an
        RR block, an IRR keyword's ``IP_w`` with partition 0, every IRR
        segment) decode once, as for one query, and every query issues
        its own reads."""
        owner, name = UNIT_DECODES[unit]
        real_decode = getattr(owner, name)
        decodes = []

        def counted(*args):
            decodes.append(args)
            return real_decode(*args)

        monkeypatch.setattr(owner, name, counted)
        kind = unit.split("-")[0]
        query = KBTIMQuery(("music",), 20)  # loads IRR partitions past the first
        with READERS[kind](paths[kind]) as index:
            once = KBTIMServer(index).query(query)
        decoded_once, decodes[:] = len(decodes), []
        with READERS[kind](paths[kind]) as index:
            server = KBTIMServer(index)
            before = index.stats.snapshot()
            results = race(6, lambda: server.query(query))
            assert len(decodes) == decoded_once >= 1
            assert len({r.seeds for r in results}) == 1
            # RR: the first query reads (RR prefix + inverted lists), the
            # rest hit; IRR issues every read every time.
            first = once.stats.io.read_calls
            reads = sorted(r.stats.io.read_calls for r in results)
            assert reads == ([0] * 5 + [first] if kind == "rr" else [first] * 6)
            assert index.stats.delta(before).read_calls == sum(reads)
            # Counted per load unit: the RR block, or each IRR partition.
            units = once.stats.cache_misses
            assert units == (1 if kind == "rr" else once.stats.partitions_loaded)
            assert (server.stats.keyword_misses, server.stats.keyword_hits) == (
                units,
                5 * units,
            )
