"""Tests for the query server (repro.core.server)."""

import shutil

import pytest

from repro.core import irr_index
from repro.core.catalog import open_index
from repro.core.irr_index import IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.server import KBTIMServer
from repro.core.theta import ThetaPolicy
from repro.errors import CorruptIndexError, QueryError
from repro.storage.segments import SegmentReader


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """An RR and an IRR file over the same sample tables."""
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(250, avg_degree=8, rng=71)
    profiles = zipf_profiles(graph.n, TopicSpace.default(6), rng=72)
    model = IndependentCascade(graph)
    tmp = tmp_path_factory.mktemp("server")
    path, irr_path = str(tmp / "s.rr"), str(tmp / "s.irr")
    policy = ThetaPolicy(epsilon=1.0, K=30, cap=200)
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=73)
    tables = builder.sample()
    builder.build(path, tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=15, rng=73).build(
        irr_path, tables=tables
    )
    return {"rr": path, "irr": irr_path}


@pytest.fixture(scope="module")
def index_path(paths):
    return paths["rr"]


@pytest.fixture()
def server(index_path):
    with KBTIMServer(RRIndex(index_path), cache_keywords=4) as srv:
        yield srv


class TestCorrectness:
    def test_matches_direct_index_query(self, index_path, server):
        queries = [
            KBTIMQuery(("music",), 3),
            KBTIMQuery(("music", "book"), 5),
            KBTIMQuery(("journal", "car", "software"), 10),
        ]
        with RRIndex(index_path) as direct:
            for query in queries:
                a = direct.query(query)
                b = server.query(query)
                assert a.seeds == b.seeds
                assert a.marginal_coverages == b.marginal_coverages
                assert a.theta == b.theta
                assert a.phi_q == pytest.approx(b.phi_q)

    def test_repeat_query_identical(self, server):
        q = KBTIMQuery(("music", "book"), 4)
        assert server.query(q).seeds == server.query(q).seeds

    def test_k_above_K_rejected(self, server):
        with pytest.raises(QueryError):
            server.query(KBTIMQuery(("music",), 31))

    def test_unknown_keyword_rejected(self, server):
        with pytest.raises(Exception):
            server.query(KBTIMQuery(("quantum",), 2))


class TestCaching:
    def test_second_query_hits_cache(self, server):
        q = KBTIMQuery(("music", "book"), 3)
        server.query(q)
        misses_before = server.stats.keyword_misses
        answer = server.query(q)
        assert server.stats.keyword_misses == misses_before
        assert server.stats.keyword_hits >= 2
        # Warm queries issue zero disk reads.
        assert answer.stats.io.read_calls == 0

    def test_warm_preloads(self, server):
        server.evict_all()
        server.warm(["music", "book"])
        assert set(server.cached_keywords) == {"music", "book"}
        misses_before = server.stats.keyword_misses
        server.query(KBTIMQuery(("music", "book"), 2))
        assert server.stats.keyword_misses == misses_before


class TestStats:
    def test_counters_accumulate(self, server):
        before = server.stats.queries
        server.query(KBTIMQuery(("music",), 2))
        server.query(KBTIMQuery(("book",), 2))
        assert server.stats.queries == before + 2
        assert server.stats.mean_latency > 0
        assert server.stats.percentile_latency(95) >= server.stats.percentile_latency(5)

    def test_hit_ratio_range(self, server):
        server.query(KBTIMQuery(("music",), 2))
        server.query(KBTIMQuery(("music",), 2))
        assert 0.0 <= server.stats.hit_ratio <= 1.0

    def test_bad_cache_size_rejected(self, index_path):
        with pytest.raises(ValueError):
            KBTIMServer(RRIndex(index_path), cache_keywords=0)


class TestWarmAccounting:
    def test_warm_counts_separately(self, server):
        server.evict_all()
        hits, misses = server.stats.keyword_hits, server.stats.keyword_misses
        server.warm(["music", "book"])
        assert server.stats.warm_loads == 2
        # Pre-warming must not skew the query-traffic counters at all.
        assert server.stats.keyword_hits == hits
        assert server.stats.keyword_misses == misses

    def test_warm_of_cached_keyword_counts_nothing(self, server):
        server.evict_all()
        server.warm(["music"])
        warm_before = server.stats.warm_loads
        hits_before = server.stats.keyword_hits
        server.warm(["music"])  # already resident: no load, no hit
        assert server.stats.warm_loads == warm_before
        assert server.stats.keyword_hits == hits_before

    def test_hit_ratio_perfect_after_warm(self, server):
        """A fully pre-warmed server serving only warm queries reports a
        100% hit ratio (the bug inflated misses and capped it below 1)."""
        server.evict_all()
        server.stats.keyword_hits = 0
        server.stats.keyword_misses = 0
        server.warm(["music", "book"])
        server.query(KBTIMQuery(("music", "book"), 3))
        assert server.stats.hit_ratio == 1.0


class TestLatencyBound:
    def test_samples_bounded_by_window(self, server):
        from repro.core.server import ServerStats

        server.stats = ServerStats(latency_window=8)  # sized at construction
        for _ in range(20):
            server.query(KBTIMQuery(("music",), 2))
        assert len(server.stats.latencies) == 8
        assert server.stats.percentile_latency(95) > 0.0
        assert server.stats.percentile_latency(50) <= server.stats.percentile_latency(100)

    def test_ring_overwrites_oldest(self):
        from repro.core.server import ServerStats

        stats = ServerStats(latency_window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            stats.record_latency(value)
        assert sorted(stats.latencies) == [3.0, 4.0, 5.0, 6.0]
        assert stats.percentile_latency(100) == 6.0

    def test_mean_latency_exact_over_all_queries(self):
        from repro.core.server import ServerStats

        stats = ServerStats(latency_window=2)
        for value in (1.0, 2.0, 3.0, 4.0):
            stats.queries += 1
            stats.total_seconds += value
            stats.record_latency(value)
        assert stats.mean_latency == pytest.approx(2.5)
        assert len(stats.latencies) == 2


class TestEviction:
    """``cache_keywords`` is the one bound on decoded blocks: the server
    holds no LRU of its own beside the reader's ``BlockCache``."""

    def test_cache_keywords_bounds_every_resident_block(self, server):
        names = ("music", "book", "journal", "car", "software")
        for kw in names:  # the fixture's cache holds 4
            server.query(KBTIMQuery((kw,), 2))
        # Exactly four blocks are resident anywhere in the process, and
        # the first keyword is not one of them.
        assert len(server.index.cache) == 4
        assert list(server.index.cache.keys()) == list(names[1:])
        assert server.cached_keywords == list(names[1:])
        # So re-querying it is a miss that really goes to disk — not a
        # "miss" served for free by a second tier the bound never reached.
        misses = server.stats.keyword_misses
        answer = server.query(KBTIMQuery(("music",), 2))
        assert server.stats.keyword_misses == misses + 1
        assert answer.stats.io.read_calls == 2

    @pytest.mark.parametrize("kind", ["rr", "irr"])
    def test_evict_all_releases_the_blocks(self, paths, kind, monkeypatch):
        query = KBTIMQuery(("music", "book"), 10)
        with KBTIMServer(open_index(paths[kind]), cache_keywords=4) as server:
            server.query(query)
            assert len(server.index.cache) == 2
            decodes = _count_decodes(kind, monkeypatch)
            server.evict_all()  # one call on one object
            assert len(server.index.cache) == 0
            assert server.cached_keywords == []
            # And the next query really decodes everything it loads again:
            # nothing it decoded before survives anywhere in the reader.
            _assert_decodes_all_it_loads(kind, query, server.query(query), decodes)

    @pytest.mark.parametrize("kind", ["rr", "irr"])
    def test_a_keyword_pushed_out_decodes_all_it_loads_again(
        self, paths, kind, monkeypatch
    ):
        """On a one-keyword cache, queries on other keywords push a
        keyword out with everything decoded of it: querying it again
        decodes every unit it loads, IRR's later partitions included."""
        query = KBTIMQuery(("music",), 20)
        with KBTIMServer(open_index(paths[kind]), cache_keywords=1) as server:
            server.query(query)
            for kw in ("book", "journal"):
                server.query(KBTIMQuery((kw,), 20))
            assert server.cached_keywords == ["journal"]
            decodes = _count_decodes(kind, monkeypatch)
            _assert_decodes_all_it_loads(kind, query, server.query(query), decodes)


#: What a reader decodes per load unit: an RR keyword's block, or one
#: IRR segment (``IP_w`` with partition 0, or one later partition).
DECODES = {"rr": (RRIndex, "decode_block"), "irr": (irr_index, "_decode_segment")}


def _count_decodes(kind, monkeypatch):
    """The list every later decode of a ``kind`` reader appends to."""
    owner, name = DECODES[kind]
    real_decode = getattr(owner, name)
    decodes = []

    def counted(*args):
        decodes.append(args)
        return real_decode(*args)

    monkeypatch.setattr(owner, name, counted)
    return decodes


def _assert_decodes_all_it_loads(kind, query, answer, decodes):
    """``answer`` found nothing it loaded resident: an RR query decoded
    (and read) every keyword's block, an IRR query decoded every
    partition it loaded — past partition 0, or the count says no more."""
    if kind == "rr":
        assert len(decodes) == len(query.keywords)
        assert answer.stats.io.read_calls == 2 * len(query.keywords)
    else:
        assert answer.stats.partitions_loaded > len(query.keywords)
        assert len(decodes) == answer.stats.partitions_loaded


class TestLoadUnitCounters:
    """A hit is a decode spared: each answer counts its load units (an RR
    keyword block, an IRR partition segment) where the decode is decided,
    and the server sums the answers' counts."""

    @pytest.mark.parametrize("kind", ["rr", "irr"])
    def test_a_cold_query_misses_every_unit_and_a_repeat_hits_them(
        self, paths, kind, monkeypatch
    ):
        query = KBTIMQuery(("music", "book"), 30)
        with KBTIMServer(open_index(paths[kind])) as server:
            decodes = _count_decodes(kind, monkeypatch)
            cold = server.query(query)
            units = cold.stats.partitions_loaded if kind == "irr" else 2
            assert (cold.stats.cache_hits, cold.stats.cache_misses) == (0, units)
            assert len(decodes) == units
            again = server.query(query)
            assert (again.stats.cache_hits, again.stats.cache_misses) == (units, 0)
            assert len(decodes) == units
            assert (server.stats.keyword_hits, server.stats.keyword_misses) == (
                units,
                units,
            )

    def test_a_query_of_warmed_irr_keywords_decodes_nothing(
        self, paths, monkeypatch
    ):
        """``warm`` loads every partition, so the query that follows loads
        past partition 0 and still decodes nothing: all its units hit."""
        names = ("music", "book", "journal")
        with KBTIMServer(open_index(paths["irr"])) as server:
            server.warm(names)
            decodes = _count_decodes("irr", monkeypatch)
            answer = server.query(KBTIMQuery(names, 30))
            loaded = answer.stats.partitions_loaded
            assert loaded > len(names)
            assert decodes == []
            partitions = server.index._partition_info
            assert server.stats.warm_loads == sum(partitions[kw][0] for kw in names)
            assert (answer.stats.cache_hits, answer.stats.cache_misses) == (loaded, 0)
            assert (server.stats.keyword_hits, server.stats.keyword_misses) == (
                loaded,
                0,
            )
            assert server.stats.hit_ratio == 1.0

    def test_a_batch_counts_each_unit_in_the_answer_that_loaded_it(
        self, paths, monkeypatch
    ):
        """On a cold IRR server, the batch's first query pays for every
        unit it loads; the second, on a keyword the first loaded, reads
        its later partitions again and decodes none of them."""
        with KBTIMServer(open_index(paths["irr"])) as server:
            decodes = _count_decodes("irr", monkeypatch)
            first, second = server.query_batch(
                [KBTIMQuery(("music", "book"), 30), KBTIMQuery(("music",), 30)]
            )
            loaded = first.stats.partitions_loaded
            assert (first.stats.cache_hits, first.stats.cache_misses) == (0, loaded)
            assert len(decodes) == loaded
            assert second.stats.partitions_loaded > 1
            assert second.stats.cache_misses == 0
            assert second.stats.cache_hits == second.stats.partitions_loaded
            # Partition 0 is the batch's held value; the later ones are read.
            assert second.stats.io.read_calls == second.stats.partitions_loaded - 1


class TestLatencyWindowEdgeCases:
    def test_zero_window_disables_retention(self):
        from repro.core.server import ServerStats

        stats = ServerStats(latency_window=0)
        stats.record_latency(1.0)
        stats.record_latency(2.0)
        assert stats.latencies == ()
        assert stats.percentile_latency(95) == 0.0

    def test_unknown_keyword_does_not_inflate_counters(self, server):
        from repro.errors import QueryError

        misses, warms = server.stats.keyword_misses, server.stats.warm_loads
        with pytest.raises(QueryError):
            server.warm(["typo"])
        with pytest.raises(Exception):
            server.query(KBTIMQuery(("typo",), 2))
        assert server.stats.keyword_misses == misses
        assert server.stats.warm_loads == warms


def _flip_a_byte(path, segment, out):
    """A copy of ``path`` with one byte flipped mid-``segment`` (its CRC
    no longer matches)."""
    shutil.copyfile(path, out)
    with SegmentReader(out) as segments:
        info = segments.info(segment)
    with open(out, "r+b") as fh:
        fh.seek(info.offset + info.length // 2)
        byte = fh.read(1)[0]
        fh.seek(-1, 1)
        fh.write(bytes([byte ^ 0xFF]))
    return out


@pytest.mark.parametrize("kind", ["rr", "irr"])
def test_a_batch_that_fails_part_way_counts_what_it_answered(
    kind, paths, tmp_path
):
    """A batch whose second query reads a damaged segment raises, having
    counted the first exactly as the same sequential calls do."""
    segment = "inv/book" if kind == "rr" else "irr/book/0"
    damaged = _flip_a_byte(paths[kind], segment, str(tmp_path / f"damaged.{kind}"))
    healthy, broken = KBTIMQuery(("music", "car"), 3), KBTIMQuery(("book",), 3)

    def counted(serve):
        with KBTIMServer(open_index(damaged), cache_keywords=4) as server:
            with pytest.raises(CorruptIndexError):
                serve(server)
            stats = server.stats
            counters = (stats.queries, stats.keyword_hits, stats.keyword_misses)
            return counters, server.index.stats.snapshot()

    def sequential(server):
        server.query(healthy)
        server.query(broken)

    batched = counted(lambda server: server.query_batch([healthy, broken]))
    assert batched == counted(sequential)
    # The healthy query's units all missed: two RR blocks, or every IRR
    # partition it loaded.
    with open_index(paths[kind]) as index:
        loaded = index.query(healthy).stats.partitions_loaded
    assert batched[0] == (1, 0, loaded if kind == "irr" else 2)
