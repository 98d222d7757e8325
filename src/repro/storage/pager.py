"""Paged file reads through an LRU buffer pool.

Models the disk path of a database engine closely enough that the paper's
I/O claims become measurements:

* a :class:`PagedFile` serves arbitrary byte ranges but always faults whole
  pages (default 4 KiB) from the underlying file;
* a :class:`BufferPool` tracks which pages are resident with LRU
  eviction, shared across the files of one index so repeated partition
  touches hit memory;
* every logical read is accounted on an :class:`~repro.storage.IOStats`.

There is one data path: a non-empty file is ``mmap``-ed read-only when it
opens, so every process serving the same immutable index shares one OS
page cache and :meth:`PagedFile.read_view` hands out ``memoryview``
slices straight into the map with no intermediate ``bytes``.  The pool
holds no payloads — the bytes live in the map — only the residency of
each page, so pages-read / pages-hit accounting, including
eviction-driven re-reads, follows the LRU order exactly.

Neither class takes a lock: a file and its pool belong to one reader,
which has one caller at a time (see "Concurrency contract" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import itertools
import mmap
import os
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple, Union

from repro.errors import StorageError
from repro.storage.iostats import IOStats

__all__ = ["BufferPool", "PagedFile", "DEFAULT_PAGE_SIZE"]

PathLike = Union[str, os.PathLike]

DEFAULT_PAGE_SIZE = 4096

#: Process-wide file ids, so files sharing one pool never share a key.
_FILE_IDS = itertools.count()


class BufferPool:
    """Fixed-capacity LRU set of resident pages keyed by
    ``(file_id, page_number)``.

    A pool may be shared by several files; like the reader that owns
    it, it has one caller at a time.
    """

    def __init__(self, capacity_pages: int = 1024) -> None:
        if capacity_pages < 1:
            raise StorageError(f"capacity_pages must be >= 1, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        # Per-file page-number index so invalidate_file is O(pages of
        # that file) instead of a scan of the whole pool on every close.
        self._by_file: Dict[int, Set[int]] = {}

    def touch(self, key: Tuple[int, int]) -> bool:
        """Mark a page most-recently used; ``True`` when it was resident.

        A miss makes the page resident, evicting the least-recently-used
        one when the pool is full.
        """
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        if len(self._pages) >= self.capacity_pages:
            evicted, _ = self._pages.popitem(last=False)
            file_pages = self._by_file[evicted[0]]
            file_pages.discard(evicted[1])
            if not file_pages:
                del self._by_file[evicted[0]]
        self._pages[key] = None
        self._by_file.setdefault(key[0], set()).add(key[1])
        return False

    def invalidate_file(self, file_id: int) -> None:
        """Drop all pages of one file (called when a file is rewritten)."""
        for page_no in self._by_file.pop(file_id, ()):
            del self._pages[(file_id, page_no)]

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Residency check that does not disturb the LRU order."""
        return key in self._pages

    def __len__(self) -> int:
        return len(self._pages)


class PagedFile:
    """Read-only byte-range access to a file with page-granular faulting.

    A non-empty file is ``mmap``-ed read-only when it opens (sharing the
    OS page cache across every process serving the same index); a file
    that cannot be mapped raises :class:`~repro.errors.StorageError`
    there.  An empty file serves only zero-length reads.

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
        self._map: Optional[mmap.mmap] = None
        # The map keeps its own handle on the file: ours closes here.
        with open(self.path, "rb") as fh:
            self.size = os.fstat(fh.fileno()).st_size
            if self.size > 0:
                try:
                    self._map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError) as exc:
                    raise StorageError(f"{self.path}: cannot map file: {exc}") from None
        self._view: Optional[memoryview] = memoryview(
            b"" if self._map is None else self._map
        )
        self._file_id = next(_FILE_IDS)

    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` as one logical I/O."""
        return bytes(self.read_view(offset, length))

    def read_view(self, offset: int, length: int) -> memoryview:
        """Read ``length`` bytes at ``offset`` as a zero-copy ``memoryview``.

        The returned read-only view aliases the map directly — no bytes
        are materialised, and decoders consuming the view
        (``np.frombuffer``, struct unpacking, slicing) read straight from
        the OS page cache.  One ``read_call``: pages absent from the pool
        count as physical reads (the first touch, or a re-touch after LRU
        eviction), resident ones as hits.

        Callers must not hold views past :meth:`close` plus the lifetime
        of any arrays decoded from them; :meth:`close` tolerates (and
        defers unmapping for) still-referenced views.
        """
        if self._view is None:
            raise StorageError(f"{self.path} is closed")
        if offset < 0 or length < 0:
            raise StorageError("offset and length must be non-negative")
        if offset + length > self.size:
            raise StorageError(
                f"read past end of file: offset={offset} length={length} "
                f"size={self.size}"
            )
        pages_hit = 0
        if length:
            first_page = offset // self.page_size
            last_page = (offset + length - 1) // self.page_size
            touch, file_id = self.pool.touch, self._file_id
            for page_no in range(first_page, last_page + 1):
                pages_hit += touch((file_id, page_no))
            pages_read = last_page - first_page + 1 - pages_hit
        else:
            pages_read = 0
        self.stats.record_read(
            pages_read=pages_read, pages_hit=pages_hit, nbytes=length
        )
        return self._view[offset : offset + length]

    def close(self) -> None:
        """Unmap the file and drop its pages from the pool (idempotent).

        If decoded arrays still alias the map (zero-copy views handed
        out by :meth:`read_view`), the unmap is deferred to garbage
        collection instead of raising ``BufferError`` — the map stays
        valid exactly as long as something references it.
        """
        if self._view is None:
            return
        view, self._view = self._view, None
        self.pool.invalidate_file(self._file_id)
        try:
            view.release()
            if self._map is not None:
                self._map.close()
        except BufferError:
            # Live exports (numpy views over the map) keep the mapping
            # alive; dropping our references lets GC unmap once the last
            # array dies.
            pass
        self._map = None

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PagedFile({self.path!r}, size={self.size}, "
            f"page_size={self.page_size})"
        )
