"""Machine-wide shared-memory cache for decoded keyword blocks.

Process-level serving workers each used to decode (PFOR + varint) every
hot keyword into private :class:`~repro.core.rr_index.KeywordCoverageCSR`
arrays — N workers meant N decodes and N resident copies, so worker RSS
grew linearly with worker count.  This module moves the decoded arrays
into POSIX shared memory (``shm_open`` + ``mmap``): one PFOR
decode per keyword *per machine*, with every worker mapping the same
immutable pages.

Design
------
A cache is two kinds of segments:

* one small **directory** segment (``kbtim-<fingerprint>``) holding a
  header and a fixed array of slots — ``keyword``, decoded set ``count``,
  the four array lengths, and the name of the block segment;
* one immutable **block** segment per published keyword
  (``kbtim-<fingerprint>-b<n>``) holding the four ``int64`` CSR arrays
  (``set_ptr``, ``set_vertices``, ``inv_vertices``, ``inv_sets``) back to
  back after a tiny header.

Readers are lock-free: a *seqlock* (even/odd sequence counter in the
directory header) lets :meth:`SharedBlockCache.get` snapshot the slot
array without blocking writers; a torn snapshot is simply retried.  Block
segments are write-once — names are never reused (a monotonic counter in
the header), so any segment a snapshot names is either attachable and
valid, or already unlinked (a miss).  Writers serialise on an
``fcntl.flock`` sidecar lock file, which the kernel releases even when a
worker is killed mid-publish — no stuck-lock recovery protocol needed.

Lifecycle rules (the part that usually goes wrong):

* no segment is ever reported to the process's ``resource_tracker``
  (see :class:`_Segment`) — a worker that merely *attached* to a
  machine-wide segment must not unlink it when that worker exits;
* the process that physically created the directory is the **owner**: it
  unlinks everything via :meth:`unlink_all` on :meth:`close` or at
  interpreter exit (``atexit``), guarded by a pid check so forked
  children never run the owner cleanup;
* non-owners (workers, including restarted workers) only ever *attach* —
  a restarted worker reattaches to the existing directory and never
  re-creates or unlinks shared state.
"""

from __future__ import annotations

import atexit
import hashlib
import mmap
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - always present on Linux/macOS
    import fcntl
except ImportError:  # pragma: no cover - windows fallback (best effort)
    fcntl = None  # type: ignore[assignment]

try:  # CPython ships this on every POSIX platform
    import _posixshmem

    _HAVE_SHM = True
except ImportError:  # pragma: no cover - non-POSIX builds
    _HAVE_SHM = False

__all__ = ["SharedBlockCache", "shared_cache_name_for", "unlink_segment"]

_MAGIC = 0x4B42_5449_4D53_4843  # "KBTIMSHC"
_VERSION = 1
_BLOCK_MAGIC = 0x4B42_5449_4D42_4C4B  # "KBTIMBLK"

_HEADER_DTYPE = np.dtype(
    [
        ("magic", "<u8"),
        ("version", "<u8"),
        ("seq", "<u8"),
        ("slots", "<u8"),
        ("next_block", "<u8"),
        ("victim", "<u8"),
    ]
)

_SLOT_DTYPE = np.dtype(
    [
        ("used", "<u8"),
        ("count", "<u8"),
        ("nbytes", "<u8"),
        ("lens", "<u8", (4,)),
        ("keyword", "S64"),
        ("segment", "S48"),
    ]
)

#: Bytes of block-segment header: (magic, count).
_BLOCK_HEADER_BYTES = 16

#: Seqlock snapshot retries before a lookup is treated as a miss.
_SNAPSHOT_RETRIES = 128

#: Bound on per-process cached attachments to block segments (evicted
#: blocks linger in the local map until pushed out; mappings stay valid
#: even after the segment is unlinked machine-wide).
_MAX_ATTACHMENTS = 512


class _Segment:
    """One named POSIX shared-memory segment, mapped read-write.

    Deliberately not :class:`multiprocessing.shared_memory.SharedMemory`:
    that class reports every create *and attach* to the process's
    ``resource_tracker``, which (before 3.13) keeps a plain *set* of
    names and is shared by forked workers.  A worker that merely attached
    to a machine-wide segment would unlink it on exit, and two processes
    balancing their own register/unregister pairs for one name interleave
    as REG REG UNREG UNREG — the second remove raises ``KeyError`` inside
    the tracker.  Segments here never talk to the tracker at all; cleanup
    is explicit (the owner unlinks, see :func:`unlink_segment`).

    ``close`` tolerates live numpy exports: arrays served zero-copy from
    the segment keep its buffer exported, so a blocked close only drops
    this handle's references — the mapping stays alive exactly until the
    last array dies, then ordinary GC unmaps it.
    """

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        self.name = name
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open(f"/{name}", flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            self.size = os.fstat(fd).st_size
            if not self.size:
                raise OSError(f"shared-memory segment {name!r} is empty")
            self._mmap = mmap.mmap(fd, self.size)
        except OSError:
            if create:
                unlink_segment(name)
            raise
        finally:
            os.close(fd)  # the mapping outlives the descriptor
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Drop the mapping; defer the unmap while exports exist."""
        buf, mapped = self.buf, self._mmap
        self.buf = self._mmap = None
        if mapped is None:
            return
        try:
            buf.release()
            mapped.close()
        except BufferError:
            pass


def unlink_segment(name: str) -> None:
    """Unlink one segment by name, tolerating its absence.

    Processes still attached keep their mappings (POSIX semantics).
    """
    try:
        _posixshmem.shm_unlink(f"/{name}")
    except FileNotFoundError:
        pass


def shared_cache_name_for(path: str) -> str:
    """Deterministic cache name for one on-disk index file.

    Fingerprints the file identity (real path, size, mtime) so every
    pool/worker opening the same immutable index derives the same
    directory-segment name — and a rebuilt index gets a fresh cache.
    """
    st = os.stat(path)
    ident = f"{os.path.realpath(path)}:{st.st_size}:{st.st_mtime_ns}"
    digest = hashlib.sha1(ident.encode("utf-8")).hexdigest()[:12]
    return f"kbtim-{digest}"


class SharedBlockCache:
    """Seqlock-directory shared-memory cache of decoded keyword blocks.

    Parameters
    ----------
    name:
        Shared-memory name of the directory segment; derive it with
        :func:`shared_cache_name_for` so independent pools over the same
        index file converge on one cache.
    slots:
        Directory capacity in keywords (fixed at create time; attachers
        adopt the creator's value).
    create:
        ``True`` attaches to an existing directory or creates it (the
        actual creator becomes the owner responsible for unlinking);
        ``False`` strictly attaches — workers use this so a restart can
        never re-create machine-wide state.
    max_block_bytes:
        Publish cap: a decoded block larger than this stays private to
        the decoding process.

    Raises
    ------
    FileNotFoundError
        When ``create=False`` and no directory segment exists.
    RuntimeError
        When POSIX shared memory is unavailable.
    """

    def __init__(
        self,
        name: str,
        *,
        slots: int = 64,
        create: bool = False,
        max_block_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if not _HAVE_SHM:  # pragma: no cover - minimal builds
            raise RuntimeError("POSIX shared memory is unavailable")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.name = name
        self.max_block_bytes = int(max_block_bytes)
        self._owner = False
        self._owner_pid = os.getpid()
        self._closed = False
        self._attached: Dict[str, Tuple[_Segment, Tuple[np.ndarray, ...]]] = {}
        self._lock_path = os.path.join(tempfile.gettempdir(), f"{name}.lock")
        self._lock_fh = open(self._lock_path, "a+b")
        dir_size = _HEADER_DTYPE.itemsize + slots * _SLOT_DTYPE.itemsize
        if create:
            with self._flock():
                try:
                    self._dir = _Segment(name=name)
                except FileNotFoundError:
                    self._dir = _Segment(
                        name=name, create=True, size=dir_size
                    )
                    self._owner = True
                    header = np.frombuffer(
                        self._dir.buf, dtype=_HEADER_DTYPE, count=1
                    )
                    header["magic"] = _MAGIC
                    header["version"] = _VERSION
                    header["seq"] = 0
                    header["slots"] = slots
                    header["next_block"] = 0
                    header["victim"] = 0
        else:
            self._dir = _Segment(name=name)
        self._header = np.frombuffer(self._dir.buf, dtype=_HEADER_DTYPE, count=1)
        if int(self._header["magic"][0]) != _MAGIC:
            self._dir.close()
            raise RuntimeError(f"shared cache {name!r}: bad directory magic")
        self.slots = int(self._header["slots"][0])
        self._slots = np.frombuffer(
            self._dir.buf,
            dtype=_SLOT_DTYPE,
            count=self.slots,
            offset=_HEADER_DTYPE.itemsize,
        )
        if self._owner:
            atexit.register(self._atexit_cleanup)

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    @contextmanager
    def _flock(self) -> Iterator[None]:
        """Cross-process writer lock (kernel-released on process death)."""
        if fcntl is not None:
            fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def _snapshot_slots(self) -> Optional[np.ndarray]:
        """Seqlock-consistent copy of the slot array (None on give-up)."""
        for _ in range(_SNAPSHOT_RETRIES):
            s0 = int(self._header["seq"][0])
            if s0 % 2:
                time.sleep(0.0002)
                continue
            snap = self._slots.copy()
            if int(self._header["seq"][0]) == s0:
                return snap
        return None

    def _attach_block(
        self, segment: str, count: int, lens: Tuple[int, int, int, int]
    ) -> Optional[Tuple[np.ndarray, ...]]:
        """Map one immutable block segment into read-only int64 views."""
        cached = self._attached.get(segment)
        if cached is not None:
            return cached[1]
        try:
            shm = _Segment(name=segment)
        except (FileNotFoundError, OSError):
            return None
        head = np.frombuffer(shm.buf, dtype="<u8", count=2)
        if int(head[0]) != _BLOCK_MAGIC or int(head[1]) != count:
            shm.close()
            return None
        arrays: List[np.ndarray] = []
        offset = _BLOCK_HEADER_BYTES
        for n in lens:
            arr = np.frombuffer(shm.buf, dtype="<i8", count=int(n), offset=offset)
            arr.flags.writeable = False
            arrays.append(arr)
            offset += int(n) * 8
        views = tuple(arrays)
        if len(self._attached) >= _MAX_ATTACHMENTS:
            old_name, (old_shm, _views) = next(iter(self._attached.items()))
            del self._attached[old_name]
            old_shm.close()
        self._attached[segment] = (shm, views)
        return views

    def get(
        self, keyword: str, count: int
    ) -> Optional[Tuple[int, Tuple[np.ndarray, ...]]]:
        """Look up a decoded block covering >= ``count`` sets of ``keyword``.

        Returns ``(stored_count, (set_ptr, set_vertices, inv_vertices,
        inv_sets))`` as read-only ``int64`` views straight into shared
        memory, or ``None`` on a miss (not published, published smaller,
        or evicted between snapshot and attach).  Lock-free: concurrent
        publishes only cause retries, never blocking.
        """
        snap = self._snapshot_slots()
        if snap is None:
            return None
        kwb = keyword.encode("utf-8")
        for slot in snap:
            if not int(slot["used"]):
                continue
            if bytes(slot["keyword"]).rstrip(b"\x00") != kwb:
                continue
            stored = int(slot["count"])
            if stored < count:
                return None
            views = self._attach_block(
                bytes(slot["segment"]).rstrip(b"\x00").decode("ascii"),
                stored,
                tuple(int(n) for n in slot["lens"]),
            )
            if views is None:
                return None
            return stored, views
        return None

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def put(
        self,
        keyword: str,
        count: int,
        set_ptr: np.ndarray,
        set_vertices: np.ndarray,
        inv_vertices: np.ndarray,
        inv_sets: np.ndarray,
    ) -> Optional[Tuple[int, Tuple[np.ndarray, ...]]]:
        """Publish a freshly decoded block for the whole machine.

        Copies the four CSR arrays into a new write-once block segment and
        flips the directory slot under the seqlock.  If a concurrent
        publisher already stored a block covering >= ``count`` sets, that
        block is returned instead (last writer does not win — the larger
        prefix does).  Returns the same ``(stored_count, views)`` shape as
        :meth:`get`, or ``None`` when the block cannot be shared (keyword
        name too long, block over ``max_block_bytes``).
        """
        kwb = keyword.encode("utf-8")
        if len(kwb) > 64:
            return None
        arrays = [
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (set_ptr, set_vertices, inv_vertices, inv_sets)
        ]
        total = _BLOCK_HEADER_BYTES + sum(a.nbytes for a in arrays)
        if total > self.max_block_bytes:
            return None
        with self._flock():
            # Re-check under the lock: another worker may have published
            # this keyword (possibly a larger prefix) while we decoded.
            slot_idx = None
            free_idx = None
            for i in range(self.slots):
                if not int(self._slots["used"][i]):
                    if free_idx is None:
                        free_idx = i
                    continue
                if bytes(self._slots["keyword"][i]).rstrip(b"\x00") == kwb:
                    slot_idx = i
                    break
            if slot_idx is not None and int(self._slots["count"][slot_idx]) >= count:
                existing = self._attach_block(
                    bytes(self._slots["segment"][slot_idx])
                    .rstrip(b"\x00")
                    .decode("ascii"),
                    int(self._slots["count"][slot_idx]),
                    tuple(int(n) for n in self._slots["lens"][slot_idx]),
                )
                if existing is not None:
                    return int(self._slots["count"][slot_idx]), existing
            bid = int(self._header["next_block"][0])
            self._header["next_block"] = bid + 1
            segment = f"{self.name}-b{bid}"
            try:
                shm = _Segment(name=segment, create=True, size=total)
            except OSError:
                return None
            head = np.frombuffer(shm.buf, dtype="<u8", count=2)
            head[0] = _BLOCK_MAGIC
            head[1] = count
            offset = _BLOCK_HEADER_BYTES
            views: List[np.ndarray] = []
            for a in arrays:
                dst = np.frombuffer(
                    shm.buf, dtype="<i8", count=len(a), offset=offset
                )
                dst[:] = a
                dst.flags.writeable = False
                views.append(dst)
                offset += a.nbytes
            if slot_idx is None:
                if free_idx is not None:
                    slot_idx = free_idx
                else:
                    slot_idx = int(self._header["victim"][0]) % self.slots
                    self._header["victim"] = slot_idx + 1
            old_segment = b""
            if int(self._slots["used"][slot_idx]):
                old_segment = bytes(self._slots["segment"][slot_idx]).rstrip(
                    b"\x00"
                )
            # Seqlock write: odd while the slot is torn, even when stable.
            self._header["seq"] = int(self._header["seq"][0]) + 1
            self._slots["used"][slot_idx] = 1
            self._slots["count"][slot_idx] = count
            self._slots["nbytes"][slot_idx] = total
            self._slots["lens"][slot_idx] = [len(a) for a in arrays]
            self._slots["keyword"][slot_idx] = kwb
            self._slots["segment"][slot_idx] = segment.encode("ascii")
            self._header["seq"] = int(self._header["seq"][0]) + 1
            if old_segment and old_segment.decode("ascii") != segment:
                unlink_segment(old_segment.decode("ascii"))
            self._attached[segment] = (shm, tuple(views))
            return count, tuple(views)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def keywords(self) -> Dict[str, int]:
        """Published ``keyword -> stored set count`` (seqlock snapshot)."""
        snap = self._snapshot_slots()
        out: Dict[str, int] = {}
        if snap is None:
            return out
        for slot in snap:
            if int(slot["used"]):
                out[bytes(slot["keyword"]).rstrip(b"\x00").decode("utf-8")] = int(
                    slot["count"]
                )
        return out

    def shared_bytes(self) -> int:
        """Total machine-shared bytes: directory plus published blocks."""
        total = self._dir.size
        snap = self._snapshot_slots()
        if snap is not None:
            for slot in snap:
                if int(slot["used"]):
                    total += int(slot["nbytes"])
        return total

    @property
    def is_owner(self) -> bool:
        """Whether this handle created the directory (and must unlink it)."""
        return self._owner

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _orphan_segments(self) -> List[str]:
        """Block segments on this machine belonging to this cache name.

        Scans ``/dev/shm`` (where POSIX shared memory surfaces on Linux)
        for ``<name>-b*``: blocks a killed worker created but never
        published, which no directory slot names.
        """
        prefix = f"{self.name}-b"
        try:
            return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
        except OSError:
            return []

    def close(self) -> None:
        """Detach from every segment; the owner also unlinks everything.

        Safe to call repeatedly.  Non-owners only drop their mappings —
        shared state stays for the rest of the machine.
        """
        if self._closed:
            return
        self._closed = True
        if self._owner and os.getpid() == self._owner_pid:
            try:
                atexit.unregister(self._atexit_cleanup)
            except Exception:
                pass
            self.unlink_all()
        for shm, _views in list(self._attached.values()):
            shm.close()
        self._attached.clear()
        try:
            # Header/slot views alias the directory buffer; drop them
            # first so close() has a chance to succeed outright.
            del self._header
            del self._slots
        except AttributeError:
            pass
        self._dir.close()
        try:
            self._lock_fh.close()
        except OSError:
            pass

    def unlink_all(self) -> None:
        """Unlink every block segment, orphans included, then the directory.

        Owner-side teardown (also wired to ``atexit``): walks the
        directory slots, unlinks their segments, sweeps ``/dev/shm`` for
        unpublished orphans from killed workers, unlinks the directory
        segment and removes the sidecar lock file.  Processes still
        attached keep their mappings (POSIX semantics); new attaches
        miss and fall back to disk decode.
        """
        snap = self._snapshot_slots()
        if snap is not None:
            for slot in snap:
                if int(slot["used"]):
                    unlink_segment(
                        bytes(slot["segment"]).rstrip(b"\x00").decode("ascii")
                    )
        for orphan in self._orphan_segments():
            unlink_segment(orphan)
        unlink_segment(self.name)
        try:
            os.unlink(self._lock_path)
        except OSError:
            pass

    def _atexit_cleanup(self) -> None:
        """Owner cleanup at interpreter exit (pid-guarded against forks)."""
        if os.getpid() != self._owner_pid or self._closed:
            return
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "SharedBlockCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedBlockCache({self.name!r}, slots={self.slots}, "
            f"owner={self._owner})"
        )
