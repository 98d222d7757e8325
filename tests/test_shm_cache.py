"""Shared-memory serving tier (repro.core.shm_cache + repro.core.transport, PR 8).

Pinned guarantees:

* ``SharedBlockCache`` publishes decoded CSR blocks that attach back
  bit-identical, refuses to downgrade a keyword to a smaller prefix,
  evicts round-robin at capacity, and leaves ``/dev/shm`` empty after
  the owner's ``unlink_all``/``close``.
* ``RRIndex`` with an attached shared cache serves a published keyword
  with **zero** disk reads (exact I/O accounting), and ``clip_prefix``
  over a shared block returns the same arrays a private decode would.
* No segment ever reaches ``multiprocessing.resource_tracker`` (whose
  per-type name *set*, shared by forked workers, turned interleaved
  register/unregister pairs into ``KeyError`` noise at exit).
* The flat response transport round-trips whole answer batches
  losslessly, grows its segment under the same name (generation bump),
  and rejects desynchronised frames with a typed error.
* A ``spawn``-started :class:`SupervisedServerPool` attaches to the shared
  cache and answers bit-identically, with no leaked segments after
  close.
"""

import os

import numpy as np
import pytest

from repro.core.process_pool import SupervisedServerPool
from repro.core.results import QueryStats, SeedSelection
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.shm_cache import (
    SharedBlockCache,
    shared_cache_name_for,
    unlink_segment,
)
from repro.core.theta import ThetaPolicy
from repro.core.transport import (
    ResponseReader,
    ResponseWriter,
    transport_available,
)
from repro.errors import ServerError
from repro.storage.iostats import IOStats

pytestmark = pytest.mark.skipif(
    not transport_available(), reason="POSIX shared memory unavailable"
)


def shm_entries(prefix: str):
    """Current /dev/shm entries with ``prefix`` (empty off-Linux)."""
    try:
        return sorted(e for e in os.listdir("/dev/shm") if e.startswith(prefix))
    except (FileNotFoundError, NotADirectoryError):
        return []


def make_block(n_sets: int, seed: int):
    """A synthetic CSR block: (set_ptr, set_vertices, inv_vertices, inv_sets)."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=n_sets)
    set_ptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    set_vertices = rng.integers(0, 100, size=int(set_ptr[-1]), dtype=np.int64)
    inv_vertices = rng.integers(0, 100, size=2 * n_sets, dtype=np.int64)
    inv_sets = rng.integers(0, n_sets, size=2 * n_sets, dtype=np.int64)
    return set_ptr, set_vertices, inv_vertices, inv_sets


@pytest.fixture()
def cache():
    c = SharedBlockCache("kbtim-test-cache", slots=4, create=True)
    yield c
    c.close()
    assert shm_entries("kbtim-test-cache") == []


class TestSharedBlockCache:
    def test_put_get_roundtrip_bit_identical(self, cache):
        arrays = make_block(10, seed=1)
        published = cache.put("music", 10, *arrays)
        assert published is not None
        stored, views = published
        assert stored == 10
        for original, view in zip(arrays, views):
            np.testing.assert_array_equal(original, view)
            assert not view.flags.writeable  # shared blocks are immutable
        hit = cache.get("music", 10)
        assert hit is not None
        stored, views = hit
        assert stored == 10
        for original, view in zip(arrays, views):
            np.testing.assert_array_equal(original, view)

    def test_smaller_request_hits_larger_misses(self, cache):
        cache.put("music", 10, *make_block(10, seed=1))
        assert cache.get("music", 5) is not None  # covered by the stored 10
        assert cache.get("music", 11) is None  # larger than stored
        assert cache.get("sports", 1) is None  # never published

    def test_larger_prefix_wins_smaller_is_refused(self, cache):
        cache.put("music", 5, *make_block(5, seed=2))
        cache.put("music", 10, *make_block(10, seed=3))
        stored, _views = cache.get("music", 1)
        assert stored == 10
        # Publishing a smaller prefix afterwards returns the resident
        # larger block instead of replacing it.
        stored, views = cache.put("music", 3, *make_block(3, seed=4))
        assert stored == 10
        np.testing.assert_array_equal(views[0], make_block(10, seed=3)[0])
        assert cache.keywords() == {"music": 10}

    def test_eviction_at_capacity_unlinks_old_blocks(self):
        with SharedBlockCache("kbtim-test-evict", slots=2, create=True) as c:
            for i, kw in enumerate(("a", "b", "c")):
                c.put(kw, 4, *make_block(4, seed=i))
            kws = c.keywords()
            assert len(kws) == 2 and "c" in kws  # someone was evicted
            # Exactly directory + 2 live block segments, no orphans.
            assert len(shm_entries("kbtim-test-evict")) == 3
        assert shm_entries("kbtim-test-evict") == []

    def test_attach_sees_owner_data_and_does_not_unlink(self, cache):
        cache.put("music", 6, *make_block(6, seed=5))
        attached = SharedBlockCache("kbtim-test-cache", create=False)
        assert not attached.is_owner
        stored, views = attached.get("music", 6)
        assert stored == 6
        np.testing.assert_array_equal(views[0], make_block(6, seed=5)[0])
        attached.close()  # non-owner close must leave the segments alive
        assert cache.get("music", 6) is not None

    def test_oversized_block_is_not_published(self):
        with SharedBlockCache(
            "kbtim-test-cap", slots=2, create=True, max_block_bytes=256
        ) as c:
            assert c.put("music", 64, *make_block(64, seed=6)) is None
            assert c.get("music", 1) is None

    def test_segments_never_talk_to_the_resource_tracker(self, monkeypatch):
        """Create / attach / put / evict / unlink_all and a response
        segment's whole life send the tracker nothing: cleanup is
        explicit, so there is no register/unregister pair to interleave."""
        from multiprocessing import resource_tracker

        calls = []
        for name in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker,
                name,
                lambda *args, _name=name: calls.append((_name, args)),
            )
        with SharedBlockCache("kbtim-test-track", slots=2, create=True) as owner:
            attached = SharedBlockCache("kbtim-test-track", create=False)
            for i, kw in enumerate(("a", "b", "c")):  # "c" evicts a slot
                owner.put(kw, 4, *make_block(4, seed=i))
            assert attached.get("c", 4) is not None
            attached.close()
            owner.unlink_all()
        writer = ResponseWriter("kbtim-test-track-resp", initial_bytes=256)
        reader = ResponseReader("kbtim-test-track-resp")
        batch = [make_selection(i, n_seeds=4) for i in range(32)]
        nbytes, generation = writer.write(batch, seq=1)  # grows: unlink+create
        assert generation >= 1
        assert reader.read(1, nbytes, generation) == batch
        reader.close()
        writer.close()
        unlink_segment("kbtim-test-track-resp")
        assert calls == []
        assert shm_entries("kbtim-test-track") == []

    def test_name_for_tracks_file_identity(self, tmp_path):
        path = tmp_path / "index.rr"
        path.write_bytes(b"x" * 64)
        first = shared_cache_name_for(str(path))
        assert first == shared_cache_name_for(str(path))  # deterministic
        path.write_bytes(b"y" * 128)  # different size/mtime -> new cache
        assert shared_cache_name_for(str(path)) != first


@pytest.fixture(scope="module")
def index_setup(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(200, avg_degree=6, rng=71)
    profiles = zipf_profiles(graph.n, TopicSpace.default(8), rng=72)
    path = str(tmp_path_factory.mktemp("shmcache") / "s.rr")
    RRIndexBuilder(
        IndependentCascade(graph),
        profiles,
        policy=ThetaPolicy(epsilon=1.0, K=20, cap=150),
        rng=73,
    ).build(path)
    return path, profiles


class TestRRIndexIntegration:
    def test_shared_hit_costs_zero_reads_and_clips_exactly(self, index_setup):
        path, _profiles = index_setup
        with SharedBlockCache("kbtim-test-rr", slots=8, create=True) as cache:
            with RRIndex(path) as plain:
                keyword = plain.keywords()[0]
                n_sets = plain.catalog[keyword].n_sets
                want_full = plain.load_keyword_csr(keyword, n_sets)
                want_half = plain.load_keyword_csr(keyword, n_sets // 2)

            # First attached reader decodes from disk and publishes.
            with RRIndex(path, shared_cache=cache) as writer_side:
                writer_side.load_keyword_csr(keyword, n_sets)
                assert cache.keywords() == {keyword: n_sets}

            # Second reader: the load is a pure shared-memory hit.
            with RRIndex(path, shared_cache=cache) as reader_side:
                before = reader_side.stats.snapshot()
                got_full = reader_side.load_keyword_csr(keyword, n_sets)
                got_half = reader_side.load_keyword_csr(keyword, n_sets // 2)
                after = reader_side.stats.snapshot()
            assert after.read_calls == before.read_calls  # zero disk reads
            assert after.bytes_read == before.bytes_read
            for want, got in ((want_full, got_full), (want_half, got_half)):
                np.testing.assert_array_equal(want.set_ptr, got.set_ptr)
                np.testing.assert_array_equal(want.set_vertices, got.set_vertices)
                np.testing.assert_array_equal(want.inv_vertices, got.inv_vertices)
                np.testing.assert_array_equal(want.inv_sets, got.inv_sets)
        assert shm_entries("kbtim-test-rr") == []

    def test_queries_identical_with_and_without_shared_cache(self, index_setup):
        path, profiles = index_setup
        from repro.datasets.workload import make_mixed_workload

        queries = make_mixed_workload(
            profiles, n_queries=6, lengths=(1, 2), ks=(3,), rng=74
        )
        with RRIndex(path) as plain:
            want = [plain.query(q) for q in queries]
        with SharedBlockCache("kbtim-test-q", slots=8, create=True) as cache:
            with RRIndex(path, shared_cache=cache) as shared:
                got = [shared.query(q) for q in queries]
        for a, b in zip(want, got):
            assert a.seeds == b.seeds
            assert a.marginal_coverages == b.marginal_coverages
            assert a.theta == b.theta
            assert a.phi_q == b.phi_q


def make_selection(seed: int, n_seeds: int) -> SeedSelection:
    rng = np.random.default_rng(seed)
    io = IOStats()
    io.record_read(pages_read=int(rng.integers(0, 9)), pages_hit=2, nbytes=512)
    return SeedSelection(
        seeds=tuple(int(v) for v in rng.integers(0, 100, size=n_seeds)),
        marginal_coverages=tuple(
            int(v) for v in rng.integers(1, 50, size=n_seeds)
        ),
        theta=int(rng.integers(1, 500)),
        phi_q=float(rng.random()),
        stats=QueryStats(
            elapsed_seconds=float(rng.random()),
            rr_sets_considered=int(rng.integers(0, 500)),
            rr_sets_loaded=int(rng.integers(0, 500)),
            partitions_loaded=int(rng.integers(0, 8)),
            io=io,
        ),
    )


class TestFlatTransport:
    def test_roundtrip_is_lossless(self):
        batch = [make_selection(i, n_seeds=i % 5) for i in range(8)]
        writer = ResponseWriter("kbtim-test-resp", initial_bytes=4096)
        reader = ResponseReader("kbtim-test-resp")
        try:
            nbytes, generation = writer.write(batch, seq=1)
            got = reader.read(1, nbytes, generation)
            assert got == batch  # dataclass equality: every field survives
        finally:
            reader.close()
            writer.close()
        assert shm_entries("kbtim-test-resp") == []

    def test_growth_bumps_generation_and_reader_reattaches(self):
        writer = ResponseWriter("kbtim-test-grow", initial_bytes=256)
        reader = ResponseReader("kbtim-test-grow")
        try:
            small = [make_selection(1, n_seeds=2)]
            nbytes, generation = writer.write(small, seq=1)
            assert generation == 0
            assert reader.read(1, nbytes, generation) == small
            big = [make_selection(i, n_seeds=4) for i in range(32)]
            nbytes, generation = writer.write(big, seq=2)
            assert generation >= 1  # the segment had to grow
            assert reader.read(2, nbytes, generation) == big
        finally:
            reader.close()
            writer.close()
        assert shm_entries("kbtim-test-grow") == []

    def test_desynchronised_frame_is_a_typed_error(self):
        writer = ResponseWriter("kbtim-test-seq", initial_bytes=1024)
        reader = ResponseReader("kbtim-test-seq")
        try:
            nbytes, generation = writer.write([make_selection(3, 3)], seq=7)
            with pytest.raises(ServerError, match="desynchronised"):
                reader.read(8, nbytes, generation)  # stale/wrong seq
        finally:
            reader.close()
            writer.close()

    def test_unlink_segment_tolerates_absence(self):
        unlink_segment("kbtim-test-never-created")  # must not raise


class TestSpawnPool:
    def test_spawn_workers_attach_and_answer_bit_identical(self, index_setup):
        path, profiles = index_setup
        from repro.datasets.workload import make_mixed_workload

        queries = make_mixed_workload(
            profiles, n_queries=6, lengths=(1, 2), ks=(3,), rng=75
        )
        with RRIndex(path) as index:
            want = [index.query(q) for q in queries]
        cache_name = shared_cache_name_for(path)
        with SupervisedServerPool(
            path, n_workers=2, start_method="spawn", shared_block_cache=True
        ) as pool:
            assert pool.flat_transport
            assert pool.shared_cache.name == cache_name
            got = [pool.query(q) for q in queries]
            assert len(pool.shared_cache.keywords()) > 0  # workers published
            health = pool.health()
            assert health.rss_bytes > 0
            assert health.shm_bytes == pool.shared_cache.shared_bytes() > 0
        for a, b in zip(want, got):
            assert a.seeds == b.seeds
            assert a.marginal_coverages == b.marginal_coverages
            assert a.theta == b.theta
            assert a.phi_q == b.phi_q
        assert shm_entries(cache_name) == []
        assert shm_entries("kbtim-resp-") == []

    def test_query_stats_identical_across_transports(
        self, index_setup, monkeypatch
    ):
        """Flat frames and pickled answers must agree to the last byte
        of I/O accounting — the transport is representation, not
        semantics.  The pickled pool is the production degrade: the
        parent finds no shared memory, so workers get no response
        segment."""
        path, profiles = index_setup
        from repro.datasets.workload import make_mixed_workload

        queries = make_mixed_workload(
            profiles, n_queries=8, lengths=(1, 2), ks=(3,), rng=76
        )
        with SupervisedServerPool(path, n_workers=2) as flat_pool:
            flat = [flat_pool.query(q) for q in queries]
            assert flat_pool.flat_transport
        monkeypatch.setattr(
            "repro.core.process_pool.transport_available", lambda: False
        )
        with SupervisedServerPool(path, n_workers=2) as pool:
            assert not pool.flat_transport
            pickled = [pool.query(q) for q in queries]
        for a, b in zip(flat, pickled):
            assert a.seeds == b.seeds
            assert a.marginal_coverages == b.marginal_coverages
            assert a.theta == b.theta
            assert a.phi_q == b.phi_q
            assert a.stats.io == b.stats.io
            assert a.stats.rr_sets_considered == b.stats.rr_sets_considered
            assert a.stats.rr_sets_loaded == b.stats.rr_sets_loaded
            assert a.stats.partitions_loaded == b.stats.partitions_loaded
