"""Paged file reads through an LRU buffer pool.

Models the disk path of a database engine closely enough that the paper's
I/O claims become measurements:

* a :class:`PagedFile` serves arbitrary byte ranges but always faults whole
  pages (default 4 KiB) from the underlying file;
* a :class:`BufferPool` caches pages with LRU eviction, shared across the
  files of one index so repeated partition touches hit memory;
* every logical read is accounted on an :class:`~repro.storage.IOStats`.

The data path is zero-copy where the platform allows: a non-empty file is
``mmap``-ed read-only, so every process serving the same immutable index
shares one OS page cache and :meth:`PagedFile.read_view` hands out
``memoryview`` slices straight into the map with no intermediate ``bytes``.
The :class:`BufferPool` still models *residency* for mapped files — it
tracks which pages the reader has touched (a lightweight sentinel instead
of a 4 KiB payload copy) so pages-read / pages-hit accounting, including
eviction-driven re-reads, is bit-identical to the copying implementation.
Files that cannot be mapped (empty files, exotic filesystems) fall back to
positioned reads with real page payloads in the pool.

Both classes are thread-safe: the serving tier reads from multiple
threads, so physical reads are positioned (``os.pread`` where available —
no shared seek cursor to race on) and the pool's LRU bookkeeping happens
under a small internal lock.
"""

from __future__ import annotations

import mmap
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple, Union

from repro.errors import StorageError
from repro.storage.iostats import IOStats

__all__ = ["BufferPool", "PagedFile", "DEFAULT_PAGE_SIZE"]

PathLike = Union[str, os.PathLike]

DEFAULT_PAGE_SIZE = 4096

#: Guards the process-wide file-id counter (ids must stay unique even
#: when server pools open many readers concurrently).
_ID_LOCK = threading.Lock()

#: Residency sentinel stored in the pool for mmap-backed pages: the page
#: payload lives in the shared map (and the OS page cache), so the pool
#: only needs to remember *that* the page is resident, not its bytes.
_MAPPED_PAGE: bytes = b"\x00"


class BufferPool:
    """Fixed-capacity LRU page cache keyed by ``(file_id, page_number)``.

    Thread-safe: one pool may be shared by several readers of an index,
    so the LRU order, the page map, and the per-file index mutate under
    one internal lock.  Entries are immutable ``bytes``:
    full page payloads for files read through the positioned-read
    fallback, or a one-byte residency sentinel for ``mmap``-backed files
    (the payload already lives in the shared map).  A returned entry
    never needs the lock again.
    """

    def __init__(self, capacity_pages: int = 1024) -> None:
        if capacity_pages < 1:
            raise StorageError(f"capacity_pages must be >= 1, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self._lock = threading.Lock()
        self._pages: "OrderedDict[Tuple[int, int], bytes]" = OrderedDict()
        # Per-file page-number index so invalidate_file is O(pages of
        # that file) instead of a scan of the whole pool on every close.
        self._by_file: Dict[int, Set[int]] = {}

    def get(self, key: Tuple[int, int]) -> Optional[bytes]:
        """Return the cached page and mark it most-recently used."""
        with self._lock:
            page = self._pages.get(key)
            if page is not None:
                self._pages.move_to_end(key)
            return page

    def put(self, key: Tuple[int, int], page: bytes) -> None:
        """Insert a page, evicting the least-recently-used one if full."""
        with self._lock:
            if key in self._pages:
                self._pages.move_to_end(key)
                self._pages[key] = page
                return
            if len(self._pages) >= self.capacity_pages:
                evicted, _ = self._pages.popitem(last=False)
                file_pages = self._by_file[evicted[0]]
                file_pages.discard(evicted[1])
                if not file_pages:
                    del self._by_file[evicted[0]]
            self._pages[key] = page
            self._by_file.setdefault(key[0], set()).add(key[1])

    def invalidate_file(self, file_id: int) -> None:
        """Drop all pages of one file (called when a file is rewritten)."""
        with self._lock:
            for page_no in self._by_file.pop(file_id, ()):
                del self._pages[(file_id, page_no)]

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Residency check that does not disturb the LRU order."""
        return key in self._pages

    def __len__(self) -> int:
        return len(self._pages)


class PagedFile:
    """Read-only byte-range access to a file with page-granular faulting.

    Non-empty files are ``mmap``-ed read-only (sharing the OS page cache
    across every process serving the same index); empty files and
    platforms where mapping fails fall back to positioned reads that
    cache page payloads in the pool.  Accounting is identical in both
    modes — the pool tracks page residency with LRU eviction either way.

    Parameters
    ----------
    path:
        File to serve.
    stats:
        Counter receiving one ``read_call`` per :meth:`read` plus physical
        / cached page counts.
    pool:
        Optional shared buffer pool; a private 64-page pool is created when
        omitted.

    Pages (the fault granularity) are :data:`DEFAULT_PAGE_SIZE` bytes.
    """

    _next_file_id = 0

    def __init__(
        self,
        path: PathLike,
        *,
        stats: Optional[IOStats] = None,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.page_size = DEFAULT_PAGE_SIZE
        self.stats = stats if stats is not None else IOStats()
        self.pool = pool if pool is not None else BufferPool(64)
        self._fh = open(self.path, "rb")
        self.size = os.fstat(self._fh.fileno()).st_size
        # Positioned reads (os.pread) carry no shared seek cursor, so
        # concurrent readers need no I/O lock; the seek+read fallback
        # (platforms without pread) serialises on one.
        self._use_pread = hasattr(os, "pread")
        self._io_lock = threading.Lock()
        self._map: Optional[mmap.mmap] = None
        self._view: Optional[memoryview] = None
        if self.size > 0:
            try:
                self._map = mmap.mmap(
                    self._fh.fileno(), 0, access=mmap.ACCESS_READ
                )
                self._view = memoryview(self._map)
            except (OSError, ValueError):
                self._map = None
                self._view = None
        with _ID_LOCK:
            self._file_id = PagedFile._next_file_id
            PagedFile._next_file_id += 1

    @property
    def mapped(self) -> bool:
        """Whether reads are served from an ``mmap`` of the file."""
        return self._map is not None

    # ------------------------------------------------------------------
    def _read_page(self, page_no: int) -> bytes:
        """Physically fetch one page, thread-safely."""
        if self._use_pread:
            return os.pread(self._fh.fileno(), self.page_size, page_no * self.page_size)
        with self._io_lock:
            self._fh.seek(page_no * self.page_size)
            return self._fh.read(self.page_size)

    def _check_range(self, offset: int, length: int) -> None:
        """Validate a byte range against the file size."""
        if offset < 0 or length < 0:
            raise StorageError("offset and length must be non-negative")
        if offset + length > self.size:
            raise StorageError(
                f"read past end of file: offset={offset} length={length} "
                f"size={self.size}"
            )

    def _touch_mapped_pages(self, offset: int, length: int) -> None:
        """Account page residency for a mapped read (no payload copies).

        Pages absent from the pool count as physical reads (the first
        touch — or a re-touch after LRU eviction — faults the range from
        the OS page cache); resident pages count as hits.  The sequence
        of pool operations mirrors the copying path exactly, so eviction
        behaviour and the pages-read / pages-hit split stay bit-identical.
        """
        first_page = offset // self.page_size
        last_page = (offset + length - 1) // self.page_size
        pages_read = 0
        pages_hit = 0
        for page_no in range(first_page, last_page + 1):
            key = (self._file_id, page_no)
            if self.pool.get(key) is None:
                self.pool.put(key, _MAPPED_PAGE)
                pages_read += 1
            else:
                pages_hit += 1
        self.stats.record_read(
            pages_read=pages_read, pages_hit=pages_hit, nbytes=length
        )

    def _assemble(self, offset: int, length: int) -> memoryview:
        """Fallback read path: gather pages into one contiguous view.

        Single-page reads return a slice of the cached page directly; a
        multi-page range is written into one pre-sized ``bytearray``
        (no intermediate ``bytes`` concatenation).
        """
        first_page = offset // self.page_size
        last_page = (offset + length - 1) // self.page_size
        start = offset - first_page * self.page_size
        pages_read = 0
        pages_hit = 0
        if first_page == last_page:
            key = (self._file_id, first_page)
            page = self.pool.get(key)
            if page is None:
                page = self._read_page(first_page)
                self.pool.put(key, page)
                pages_read += 1
            else:
                pages_hit += 1
            out = memoryview(page)[start : start + length]
        else:
            buf = bytearray(length)
            pos = 0
            for page_no in range(first_page, last_page + 1):
                key = (self._file_id, page_no)
                page = self.pool.get(key)
                if page is None:
                    page = self._read_page(page_no)
                    self.pool.put(key, page)
                    pages_read += 1
                else:
                    pages_hit += 1
                lo = start if page_no == first_page else 0
                hi = min(len(page), lo + (length - pos))
                buf[pos : pos + (hi - lo)] = page[lo:hi]
                pos += hi - lo
            out = memoryview(buf)
        self.stats.record_read(
            pages_read=pages_read, pages_hit=pages_hit, nbytes=length
        )
        return out

    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` as one logical I/O."""
        return bytes(self.read_view(offset, length))

    def read_view(self, offset: int, length: int) -> memoryview:
        """Read ``length`` bytes at ``offset`` as a zero-copy ``memoryview``.

        On an ``mmap``-backed file the returned view aliases the map
        directly — no bytes are materialised, and decoders consuming the
        view (``np.frombuffer``, struct unpacking, slicing) read straight
        from the OS page cache.  On the fallback path the view covers a
        private buffer assembled from pooled pages.  Accounting (one
        ``read_call``, physical/hit page counts) is identical to
        :meth:`read`.

        The view is read-only for mapped files.  Callers must not hold
        views past :meth:`close` plus the lifetime of any arrays decoded
        from them; :meth:`close` tolerates (and defers unmapping for)
        still-referenced views.
        """
        self._check_range(offset, length)
        if length == 0:
            self.stats.record_read(pages_read=0, pages_hit=0, nbytes=0)
            return memoryview(b"")
        if self._view is not None:
            self._touch_mapped_pages(offset, length)
            return self._view[offset : offset + length]
        return self._assemble(offset, length)

    def close(self) -> None:
        """Close the file handle, unmap, and drop cached pages.

        If decoded arrays still alias the map (zero-copy views handed
        out by :meth:`read_view`), the unmap is deferred to garbage
        collection instead of raising ``BufferError`` — the map stays
        valid exactly as long as something references it.
        """
        if self._fh is not None:
            self._fh.close()
            self._fh = None  # type: ignore[assignment]
            self.pool.invalidate_file(self._file_id)
        if self._map is not None:
            try:
                if self._view is not None:
                    self._view.release()
                self._map.close()
            except BufferError:
                # Live exports (numpy views over the map) keep the
                # mapping alive; dropping our references lets GC unmap
                # once the last array dies.
                pass
            self._view = None
            self._map = None

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PagedFile({self.path!r}, size={self.size}, "
            f"page_size={self.page_size}, mapped={self.mapped})"
        )
