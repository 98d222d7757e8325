"""Tests for the paged file and buffer pool (repro.storage.pager)."""

import mmap
import os
import random
from collections import OrderedDict

import pytest

from repro.errors import StorageError
from repro.storage import pager
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool, PagedFile


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(bytes(range(256)) * 64)  # 16 KiB
    return path


@pytest.fixture()
def small_pages(monkeypatch):
    """Files opened in the test fault 1 KiB pages instead of 4 KiB."""
    monkeypatch.setattr(pager, "DEFAULT_PAGE_SIZE", 1024)


class TestPagedFileReads:
    def test_read_exact_bytes(self, data_file):
        with PagedFile(data_file) as f:
            assert f.read(0, 4) == bytes([0, 1, 2, 3])
            assert f.read(255, 3) == bytes([255, 0, 1])

    def test_read_spanning_pages(self, data_file, monkeypatch):
        monkeypatch.setattr(pager, "DEFAULT_PAGE_SIZE", 64)
        with PagedFile(data_file) as f:
            blob = f.read(60, 10)
            assert blob == (bytes(range(256)) * 64)[60:70]

    def test_read_past_end_rejected(self, data_file):
        with PagedFile(data_file) as f:
            with pytest.raises(StorageError, match="past end"):
                f.read(16 * 1024 - 2, 10)

    def test_negative_args_rejected(self, data_file):
        with PagedFile(data_file) as f:
            with pytest.raises(StorageError):
                f.read(-1, 2)
            with pytest.raises(StorageError):
                f.read(0, -2)

    def test_zero_length_read(self, data_file):
        with PagedFile(data_file) as f:
            assert f.read(100, 0) == b""
            assert f.stats.read_calls == 1
            assert f.stats.pages_read == 0


class TestAccounting:
    def test_read_counts_pages(self, data_file, small_pages):
        stats = IOStats()
        with PagedFile(data_file, stats=stats) as f:
            f.read(0, 3000)  # touches 3 pages
        assert stats.read_calls == 1
        assert stats.pages_read == 3
        assert stats.bytes_read == 3000

    def test_cache_hits_counted(self, data_file, small_pages):
        stats = IOStats()
        with PagedFile(data_file, stats=stats) as f:
            f.read(0, 100)
            f.read(10, 100)  # same page, now cached
        assert stats.pages_read == 1
        assert stats.pages_hit == 1
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_snapshot_delta(self, data_file, small_pages):
        stats = IOStats()
        with PagedFile(data_file, stats=stats) as f:
            f.read(0, 10)
            before = stats.snapshot()
            f.read(5000, 10)
            delta = stats.delta(before)
        assert delta.read_calls == 1
        assert delta.pages_read == 1


class TestBufferPool:
    def test_lru_eviction(self, data_file, small_pages):
        pool = BufferPool(capacity_pages=2)
        stats = IOStats()
        with PagedFile(data_file, stats=stats, pool=pool) as f:
            f.read(0, 1)      # page 0
            f.read(1024, 1)   # page 1
            f.read(2048, 1)   # page 2 -> evicts page 0
            f.read(0, 1)      # page 0 again: physical read
        assert stats.pages_read == 4
        assert stats.pages_hit == 0

    def test_capacity_respected(self, data_file, monkeypatch):
        monkeypatch.setattr(pager, "DEFAULT_PAGE_SIZE", 512)
        pool = BufferPool(capacity_pages=3)
        with PagedFile(data_file, pool=pool) as f:
            for i in range(10):
                f.read(i * 512, 1)
        assert len(pool) <= 3

    def test_shared_pool_across_files(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"A" * 4096)
        b.write_bytes(b"B" * 4096)
        pool = BufferPool(capacity_pages=8)
        stats = IOStats()
        with PagedFile(a, pool=pool, stats=stats) as fa, PagedFile(
            b, pool=pool, stats=stats
        ) as fb:
            assert fa.read(0, 1) == b"A"
            assert fb.read(0, 1) == b"B"  # distinct file ids do not collide
            assert fa.read(1, 1) == b"A"
        assert stats.pages_hit == 1

    def test_invalidate_file_on_close(self, data_file, small_pages):
        pool = BufferPool(capacity_pages=8)
        f = PagedFile(data_file, pool=pool)
        f.read(0, 1)
        assert len(pool) == 1
        f.close()
        assert len(pool) == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(0)

    def test_page_size_is_the_module_constant(self, data_file, small_pages):
        with PagedFile(data_file) as f:
            assert f.page_size == 1024
        with pytest.raises(TypeError):
            PagedFile(data_file, page_size=4)  # not an option


class TestInvalidateFileIndex:
    """invalidate_file uses a per-file key index (O(pages of that file))."""

    def test_only_target_file_dropped(self, tmp_path, small_pages):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"A" * 8192)
        b.write_bytes(b"B" * 8192)
        pool = BufferPool(capacity_pages=16)
        fa = PagedFile(a, pool=pool)
        fb = PagedFile(b, pool=pool)
        for i in range(4):
            fa.read(i * 1024, 1)
            fb.read(i * 1024, 1)
        assert len(pool) == 8
        fa.close()  # invalidates only a's pages
        assert len(pool) == 4
        assert fb.read(0, 1) == b"B"  # b's pages still resident
        assert fb.stats.pages_hit >= 1
        fb.close()
        assert len(pool) == 0

    def test_index_survives_eviction_churn(self, tmp_path, small_pages):
        """Evicted pages leave the per-file index consistent."""
        path = tmp_path / "c.bin"
        path.write_bytes(b"C" * 16384)
        pool = BufferPool(capacity_pages=3)
        f = PagedFile(path, pool=pool)
        for i in range(16):  # far more pages than capacity
            f.read(i * 1024, 1)
        assert len(pool) == 3
        f.close()
        assert len(pool) == 0
        assert pool._by_file == {}

    def test_invalidate_unknown_file_is_noop(self):
        pool = BufferPool(capacity_pages=2)
        pool.invalidate_file(12345)  # never seen: must not raise
        assert len(pool) == 0


def _descriptors_on(path) -> int:
    """How many of this process's descriptors point at ``path``."""
    target = os.path.realpath(path)
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == target
        except OSError:
            continue  # the listing's own descriptor, already closed
    return count


class TestMmapViews:
    """One page path: every non-empty file is mapped at open, reads are
    zero-copy views of the map, and the pool tracks page residency."""

    def test_unmappable_file_fails_at_open(self, data_file, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise OSError("mmap unavailable")

        before = _descriptors_on(data_file)
        monkeypatch.setattr(mmap, "mmap", refuse)
        with pytest.raises(StorageError, match="cannot map"):
            PagedFile(data_file)
        assert _descriptors_on(data_file) == before

    def test_empty_file_serves_only_empty_reads(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with PagedFile(path) as f:
            assert f.read_view(0, 0).nbytes == 0
            assert f.stats.read_calls == 1
            with pytest.raises(StorageError, match="past end"):
                f.read_view(0, 1)

    def test_read_view_is_zero_copy_and_equal_to_read(self, data_file):
        with PagedFile(data_file) as f:
            view = f.read_view(1000, 5000)
            assert isinstance(view, memoryview)
            assert bytes(view) == f.read(1000, 5000)
            assert view.readonly

    def test_read_view_matches_file_bytes(self, data_file):
        blob = data_file.read_bytes()
        with PagedFile(data_file) as f:
            for offset, length in ((0, 1), (4095, 2), (1000, 9000), (0, len(blob))):
                want = blob[offset : offset + length]
                assert bytes(f.read_view(offset, length)) == want

    @pytest.mark.parametrize("capacity", [1, 2, 8])
    def test_accounting_matches_an_lru_model(self, data_file, small_pages, capacity):
        """pages_read / pages_hit equal an ``OrderedDict`` LRU's misses and
        hits over a seeded stream of ranged reads, evictions included."""
        blob = data_file.read_bytes()
        rng = random.Random(35)
        model: "OrderedDict[int, None]" = OrderedDict()
        misses = hits = nbytes = 0
        stats = IOStats()
        with PagedFile(data_file, stats=stats, pool=BufferPool(capacity)) as f:
            for _ in range(200):
                offset = rng.randrange(len(blob))
                length = rng.randint(0, min(3000, len(blob) - offset))
                assert f.read(offset, length) == blob[offset : offset + length]
                nbytes += length
                last = (offset + length - 1) // 1024
                for page in range(offset // 1024, last + 1) if length else ():
                    if page in model:
                        model.move_to_end(page)
                        hits += 1
                        continue
                    if len(model) == capacity:
                        model.popitem(last=False)
                    model[page] = None
                    misses += 1
                assert (stats.pages_read, stats.pages_hit) == (misses, hits)
            assert len(f.pool) == len(model)
            assert all((f._file_id, page) in f.pool for page in model)
        assert (stats.read_calls, stats.bytes_read) == (200, nbytes)
        assert hits and misses > len(model)  # both hits and evictions occurred

    def test_pool_touch_reports_residency(self):
        pool = BufferPool(capacity_pages=2)
        assert pool.touch((0, 0)) is False
        assert pool.touch((0, 1)) is False
        assert pool.touch((0, 0)) is True  # page 1 is now least recent
        assert pool.touch((0, 2)) is False  # evicts page 1
        assert (0, 1) not in pool and (0, 0) in pool
        assert not hasattr(pool, "get") and not hasattr(pool, "put")

    def test_read_after_close_is_a_storage_error(self, data_file):
        f = PagedFile(data_file)
        f.close()
        with pytest.raises(StorageError, match="is closed"):
            f.read_view(0, 1)
        f.close()  # idempotent

    def test_view_outlives_reads_until_close(self, data_file):
        f = PagedFile(data_file)
        view = f.read_view(0, 256)
        assert bytes(view) == bytes(range(256))
        view.release()  # callers must release views before close()
        f.close()

    def test_close_with_live_view_does_not_crash(self, data_file):
        f = PagedFile(data_file)
        view = f.read_view(0, 16)
        f.close()  # must tolerate the exported pointer (BufferError path)
        assert bytes(view) == bytes(range(16))
