"""Concurrent + batched serving tier (repro.core.server).

Pinned here:

* ``query_batch`` is an *optimisation*, never a semantic change: seeds,
  marginals, θ and φ_Q are bit-identical to sequential ``query()`` calls
  with caches off, over an RR and over an IRR index (caches on, and the
  per-query I/O attribution, are checked after every batch of
  ``tests/test_serving_model.py``); it loads each keyword once and
  raises what ``query`` raises.
* A shared ``KBTIMServer`` hammered from N threads answers every query
  bit-identically to a single-threaded run, with exact stats counters,
  and serialises its callers: under 1, 2 or 4 threads each answer's
  ``QueryStats.io`` equals what a serial run of the same queries, in the
  order the server took them, records — over RR and IRR.  A snapshot
  taken while a query is in flight waits for it and counts it.
* ``ServerStats.merged`` sums counters and keeps each part's window.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.catalog import open_index
from repro.core.irr_index import IRRIndex
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex
from repro.core.server import KBTIMServer, ServerStats
from repro.datasets.workload import make_mixed_workload
from repro.errors import IndexError_, QueryError


@pytest.fixture(scope="module")
def setup(served_paths):
    return served_paths["rr"], served_paths["profiles"]


@pytest.fixture(scope="module")
def paths(served_paths):
    """``{kind: path}``: the served RR file and its IRR twin."""
    return {kind: served_paths[kind] for kind in ("rr", "irr")}


#: The option that makes either reader retain nothing between queries.
COLD = {"prefix_cache_keywords": 0}


@pytest.fixture(scope="module")
def workload(setup):
    _path, profiles = setup
    return make_mixed_workload(
        profiles, n_queries=24, lengths=(1, 2, 3), ks=(3, 8), rng=44
    )


def _assert_same_selection(a, b):
    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.phi_q == pytest.approx(b.phi_q)


@pytest.mark.parametrize("kind", ["rr", "irr"])
class TestBatchEquivalenceBothKinds:
    def test_batch_matches_sequential_caches_off(self, kind, paths, workload):
        with open_index(paths[kind], **COLD) as seq_index:
            sequential = [seq_index.query(q) for q in workload]
        with KBTIMServer(open_index(paths[kind])) as server:
            server.index.cache.resize(0)  # nothing retained between queries
            batched = server.query_batch(workload)
        for a, b in zip(sequential, batched):
            _assert_same_selection(a, b)

class TestBatchEquivalence:
    def test_batch_loads_each_keyword_once(self, setup, workload):
        """Cold batch: exactly 2 reads (RR prefix + L_w) per distinct kw."""
        path, _profiles = setup
        distinct = {kw for q in workload for kw in q.keywords}
        with KBTIMServer(RRIndex(path), cache_keywords=2) as server:
            before = server.index.stats.snapshot()
            server.query_batch(workload)
            total = server.index.stats.delta(before)
        # Once each even though the cache retains far fewer keywords than
        # the batch touches: the batch holds its own block references.
        assert len(distinct) > 2
        assert total.read_calls == 2 * len(distinct)

    def test_batch_cheaper_than_sequential_cold(self, setup, workload):
        """The point of batching: strictly fewer reads than cold sequential."""
        path, _profiles = setup
        with RRIndex(path, prefix_cache_keywords=0) as index:
            before = index.stats.snapshot()
            for q in workload:
                index.query(q)
            seq_reads = index.stats.delta(before).read_calls
        with KBTIMServer(RRIndex(path)) as server:
            before = server.index.stats.snapshot()
            server.query_batch(workload)
            batch_reads = server.index.stats.delta(before).read_calls
        assert batch_reads < seq_reads

    def test_batch_uses_resident_blocks(self, setup, workload):
        """A warmed server serves the whole batch without any disk read."""
        path, _profiles = setup
        distinct = sorted({kw for q in workload for kw in q.keywords})
        with KBTIMServer(RRIndex(path)) as server:
            server.warm(distinct)
            before = server.index.stats.snapshot()
            batched = server.query_batch(workload)
            assert server.index.stats.delta(before).read_calls == 0
            assert all(r.stats.io.read_calls == 0 for r in batched)
            assert server.stats.keyword_misses == 0

    def test_batch_stats_counters(self, setup):
        path, _profiles = setup
        queries = [
            KBTIMQuery(("music", "book"), 3),
            KBTIMQuery(("music",), 2),
            KBTIMQuery(("book", "journal"), 4),
        ]
        with KBTIMServer(RRIndex(path)) as server:
            server.query_batch(queries)
            assert server.stats.queries == 3
            # 3 distinct keywords load once each; the other 2 uses hit.
            assert server.stats.keyword_misses == 3
            assert server.stats.keyword_hits == 2

    def test_empty_batch(self, setup):
        path, _profiles = setup
        with KBTIMServer(RRIndex(path)) as server:
            assert server.query_batch([]) == []
            assert server.stats.queries == 0

    def test_invalid_query_fails_whole_batch_before_io(self, setup):
        path, _profiles = setup
        with KBTIMServer(RRIndex(path)) as server:
            before = server.index.stats.snapshot()
            with pytest.raises(QueryError):
                server.query_batch(
                    [KBTIMQuery(("music",), 2), KBTIMQuery(("music",), 999)]
                )
            assert server.index.stats.delta(before).read_calls == 0
            assert server.stats.queries == 0

    @pytest.mark.parametrize(
        "bad, error",
        [
            (KBTIMQuery(("nosuchtopic",), 2), IndexError_),  # unknown keyword
            (KBTIMQuery(("music",), 999), QueryError),  # over budget
        ],
    )
    def test_batch_shares_query_error_contract(self, setup, bad, error):
        """query_batch raises the same exception types as query(), case
        by case, so callers can migrate without changing handlers."""
        with KBTIMServer(RRIndex(setup[0])) as server:
            for call in (server.query, lambda q: server.query_batch([q])):
                with pytest.raises(error):
                    call(bad)

    def test_batch_single_query_matches_query(self, setup):
        path, _profiles = setup
        q = KBTIMQuery(("music", "book"), 5)
        with KBTIMServer(RRIndex(path)) as server:
            (batched,) = server.query_batch([q])
            direct = server.query(q)
        _assert_same_selection(batched, direct)


class TestThreadHammer:
    def test_concurrent_queries_bit_identical(self, setup, workload):
        path, _profiles = setup
        with RRIndex(path) as index:
            expected = [KBTIMServer(index).query(q) for q in workload]
        with KBTIMServer(RRIndex(path), cache_keywords=16) as server:
            jobs = list(enumerate(workload)) * 3  # each query thrice
            answers = [None] * len(jobs)

            def run(slot, pos, query):
                answers[slot] = (pos, server.query(query))

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(run, slot, pos, query)
                    for slot, (pos, query) in enumerate(jobs)
                ]
                for future in futures:
                    future.result()
            for pos, answer in answers:
                _assert_same_selection(answer, expected[pos])
            # Stats counters are exact despite the hammering.
            assert server.stats.queries == len(jobs)
            touches = sum(len(q.keywords) for q in workload) * 3
            assert (
                server.stats.keyword_hits + server.stats.keyword_misses == touches
            )

    def test_concurrent_batches(self, setup, workload):
        path, _profiles = setup
        with RRIndex(path) as index:
            expected = [KBTIMServer(index).query(q) for q in workload]
        with KBTIMServer(RRIndex(path)) as server:
            halves = [workload[::2], workload[1::2]]
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(server.query_batch, h) for h in halves]
                outputs = [f.result() for f in futures]
        for half, output in zip([expected[::2], expected[1::2]], outputs):
            for a, b in zip(half, output):
                _assert_same_selection(a, b)


#: The decode each reader calls on a miss, reads included (RR) or just
#: after the read (IRR): where the exact-I/O test parks its first query.
DECODES = {"rr": (RRIndex, "decode_block"), "irr": (IRRIndex, "_decode_first")}


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("kind", ["rr", "irr"])
def test_per_query_io_is_exact_under_threads(kind, threads, paths, monkeypatch):
    """Each answer's ``QueryStats.io`` is exactly its own reads.

    The first decode parks its query until a second query has decoded
    (or 0.5 s pass): a server that let the second query in would put its
    reads inside the first query's I/O window.  A serialised server
    times the wait out, and every answer's I/O then equals a serial run
    of the same queries, in the order the server took them, on a fresh
    reader.
    """
    with open_index(paths[kind]) as probe:
        names = probe.keywords()
    # Thread t starts on its own keyword, so its first query misses too.
    jobs = [
        [KBTIMQuery((names[(t + threads * j) % len(names)],), 3 + j) for j in range(3)]
        for t in range(threads)
    ]
    owner, name = DECODES[kind]
    real_decode = getattr(owner, name)
    calls, second_decoded = [], threading.Event()

    def parked_decode(*args):
        calls.append(None)
        if len(calls) == 1:
            second_decoded.wait(timeout=0.5)
        value = real_decode(*args)
        if len(calls) > 1:
            second_decoded.set()
        return value

    monkeypatch.setattr(owner, name, parked_decode)
    with KBTIMServer(open_index(paths[kind]), cache_keywords=3) as server:
        taken = []
        real_query = server.index.query

        def recording_query(query, lookup=None):
            taken.append(query)
            return real_query(query, lookup)

        monkeypatch.setattr(server.index, "query", recording_query)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(lambda job: [server.query(q) for q in job], jobs))
    monkeypatch.undo()
    answers = {id(q): a for job, run in zip(jobs, runs) for q, a in zip(job, run)}
    assert len(taken) == len(answers) == 3 * threads
    with KBTIMServer(open_index(paths[kind]), cache_keywords=3) as serial:
        for query in taken:
            want = serial.query(query)
            got = answers[id(query)]
            assert got.stats.io == want.stats.io
            _assert_same_selection(got, want)


@pytest.mark.parametrize("kind", ["rr", "irr"])
def test_snapshot_waits_for_the_query_in_flight(kind, paths, monkeypatch):
    """``snapshot`` takes the query's lock: taken while a query is parked
    in its decode, it returns only after the query, and counts it.

    The decode waits (at most 0.5 s) for the snapshot to return: a
    server whose snapshot did not wait would report no query and no
    reads; a serialised one times the wait out first.
    """
    owner, name = DECODES[kind]
    real_decode = getattr(owner, name)
    entered, snapshot_taken = threading.Event(), threading.Event()

    def parked_decode(*args):
        entered.set()
        snapshot_taken.wait(timeout=0.5)
        return real_decode(*args)

    monkeypatch.setattr(owner, name, parked_decode)
    with KBTIMServer(open_index(paths[kind])) as server:
        opened = server.index.stats.snapshot()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(server.query, KBTIMQuery(("music",), 3))
            assert entered.wait(timeout=10)
            snap = server.snapshot()
            snapshot_taken.set()
            answer = future.result(timeout=30)
    assert snap.stats.queries == 1
    assert snap.io.delta(opened) == answer.stats.io
    assert answer.stats.io.read_calls > 0
    assert snap.cached_keywords == ("music",)


class TestMergedStats:
    def test_merged_counts_and_window(self):
        a = ServerStats(latency_window=4)
        b = ServerStats(latency_window=4)
        for i in range(6):
            a.record_query(1.0 + i)
        b.record_query(10.0)
        b.keyword_hits = b.keyword_misses = 1
        merged = ServerStats.merged([a, b])
        assert merged.queries == 7
        assert merged.keyword_hits == 1
        assert merged.keyword_misses == 1
        assert merged.total_seconds == pytest.approx(31.0)
        # a retains its newest 4 samples; b its single one
        assert sorted(merged.latencies) == [3.0, 4.0, 5.0, 6.0, 10.0]

    def test_merged_empty(self):
        merged = ServerStats.merged([])
        assert merged.queries == 0
        assert merged.latencies == ()
