"""Flat-array answer frames in a shared-memory segment (benchmark probe only).

**The serving pool does not use this module.**  Its workers answer every
request with a pickled ``("ok", result)`` over their pipe: an answer is
k ≤ K seeds and a few counters, and pickling it costs less than writing,
reading and acknowledging a frame here.  The module stays only because
the frozen benchmark imports it (``bench/targets.py`` and
``bench/tracing.py::probe_transport``, which report the
``transport.*`` per-layer metrics).  The next benchmark revision
(ROADMAP item 4) deletes it together with that probe and those metrics.

A *flat frame* lays a whole batch of
:class:`~repro.core.results.SeedSelection` answers out as a handful of
contiguous ``int64``/``float64`` arrays in one named segment; a reader
maps the segment once and rebuilds the result objects from array slices.

Frame layout (little-endian, 8-byte words)::

    header   int64[4]    magic, seq, n_queries, total_seeds
    qptr     int64[n+1]  per-query seed-count prefix sum
    seeds    int64[S]    all seed ids, back to back
    marg     int64[S]    marginal coverages, aligned with seeds
    theta    int64[n]
    ints     int64[n,9]  rr_considered, rr_loaded, partitions,
                         cache_hits, cache_misses,
                         read_calls, pages_read, pages_hit, bytes_read
    floats   f64[n,2]    phi_q, elapsed_seconds

Invariants:

* ``seq`` is echoed in the frame header and checked by the reader — a
  desynchronised or torn frame surfaces as a typed error, never as a
  silently wrong answer;
* the segment grows by unlink + recreate under the *same name* with a
  bumped ``generation``; the reader reattaches when the expected
  generation is newer than its mapping.

Ownership: the writer creates (and on ``close(unlink=True)`` unlinks)
its segment; :func:`unlink_segment` tolerates a segment that is already
gone.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import QueryStats, SeedSelection
from repro.errors import ServerError
from repro.storage.iostats import IOStats

try:  # CPython ships this on every POSIX platform
    import _posixshmem

    _HAVE_SHM = True
except ImportError:  # pragma: no cover - non-POSIX builds
    _HAVE_SHM = False

__all__ = ["ResponseWriter", "ResponseReader", "unlink_segment"]

_FRAME_MAGIC = 0x4B42_5449_4D52_5350  # "KBTIMRSP"
_HEADER = struct.Struct("<4q")  # magic, seq, n_queries, total_seeds
_HEADER_WORDS = _HEADER.size // 8
_INT_COLS = 9
_FLOAT_COLS = 2

#: Initial response-segment size; covers typical batches without a grow.
_INITIAL_BYTES = 64 * 1024


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


def transport_available() -> bool:
    """Whether POSIX shared memory is usable on this platform."""
    return _HAVE_SHM


def _frame_nbytes(n: int, total_seeds: int) -> int:
    """Exact byte length of a frame holding ``n`` answers."""
    return 8 * (
        _HEADER_WORDS + (n + 1) + 2 * total_seeds + n * (1 + _INT_COLS + _FLOAT_COLS)
    )


def _frame_arrays(buf, n: int, total_seeds: int) -> Tuple[np.ndarray, ...]:
    """``(qptr, seeds, marg, theta, ints, floats)``: the arrays after the
    header of a frame holding ``n`` answers, as views into ``buf``."""
    seeds_at = _HEADER_WORDS + n + 1
    marg_at = seeds_at + total_seeds
    theta_at = marg_at + total_seeds
    ints_at = theta_at + n
    floats_at = ints_at + n * _INT_COLS
    words = np.frombuffer(buf, dtype="<i8", count=floats_at + n * _FLOAT_COLS)
    return (
        words[_HEADER_WORDS:seeds_at],
        words[seeds_at:marg_at],
        words[marg_at:theta_at],
        words[theta_at:ints_at],
        words[ints_at:floats_at].reshape(n, _INT_COLS),
        words[floats_at:].view("<f8").reshape(n, _FLOAT_COLS),
    )


class ResponseWriter:
    """Worker-side owner of one response segment.

    Parameters
    ----------
    name:
        Shared-memory name for the segment (assigned by the parent so it
        can be unlinked even if this process is killed).
    initial_bytes:
        Starting segment size; grows geometrically as needed.

    Raises
    ------
    OSError
        If the segment cannot be created (caller falls back to pickle).
    """

    def __init__(self, name: str, *, initial_bytes: int = _INITIAL_BYTES) -> None:
        if not _HAVE_SHM:
            raise OSError("shared memory unavailable")
        self.name = name
        self.generation = 0
        self._shm = _Segment(name=name, create=True, size=initial_bytes)
        self._closed = False

    def _ensure_capacity(self, nbytes: int) -> None:
        """Grow the segment (same name, new generation) to fit ``nbytes``."""
        if self._shm.size >= nbytes:
            return
        size = self._shm.size
        while size < nbytes:
            size *= 2
        unlink_segment(self.name)
        self._shm.close()
        self._shm = _Segment(name=self.name, create=True, size=size)
        self.generation += 1

    def write(self, selections: Sequence[SeedSelection], seq: int) -> Tuple[int, int]:
        """Lay a batch of answers out as one flat frame.

        Returns ``(nbytes, generation)`` for the pipe acknowledgement.
        The parent must not be reading concurrently (guaranteed by the
        strict request/response pipe framing).
        """
        n = len(selections)
        counts = [len(s.seeds) for s in selections]
        total_seeds = sum(counts)
        nbytes = _frame_nbytes(n, total_seeds)
        self._ensure_capacity(nbytes)
        _HEADER.pack_into(self._shm.buf, 0, _FRAME_MAGIC, seq, n, total_seeds)
        qptr, seeds, marg, theta, ints, floats = _frame_arrays(
            self._shm.buf, n, total_seeds
        )
        qptr[0] = 0
        np.cumsum(np.asarray(counts, dtype=np.int64), out=qptr[1:])
        for i, sel in enumerate(selections):
            lo, hi = int(qptr[i]), int(qptr[i + 1])
            seeds[lo:hi] = sel.seeds
            marg[lo:hi] = sel.marginal_coverages
            theta[i] = sel.theta
            st = sel.stats
            io = st.io
            ints[i] = (
                st.rr_sets_considered,
                st.rr_sets_loaded,
                st.partitions_loaded,
                st.cache_hits,
                st.cache_misses,
                io.read_calls,
                io.pages_read,
                io.pages_hit,
                io.bytes_read,
            )
            floats[i, 0] = sel.phi_q
            floats[i, 1] = st.elapsed_seconds
        return nbytes, self.generation

    def close(self, *, unlink: bool = True) -> None:
        """Detach (and by default unlink) the segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        if unlink:
            unlink_segment(self.name)
        self._shm.close()


class ResponseReader:
    """Parent-side view of one worker's response segment.

    Attaches lazily on the first acknowledged frame and reattaches
    whenever the worker grew the segment (newer generation).  All decode
    errors surface as :class:`~repro.errors.ServerError` — a torn or
    desynchronised frame must never be silently delivered.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._shm: Optional[_Segment] = None
        self._generation = -1

    def _attach(self, generation: int) -> "_Segment":
        """Map the segment, refreshing a stale-generation mapping."""
        if self._shm is not None and generation == self._generation:
            return self._shm
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        try:
            self._shm = _Segment(name=self.name)
        except (FileNotFoundError, OSError) as exc:
            raise ServerError(
                f"response segment {self.name!r} is unavailable: {exc}"
            ) from None
        self._generation = generation
        return self._shm

    def read(self, seq: int, nbytes: int, generation: int) -> List[SeedSelection]:
        """Decode one acknowledged frame into result objects.

        Parameters mirror the pipe acknowledgement.  Raises
        :class:`~repro.errors.ServerError` on any header mismatch
        (magic, sequence number, length).
        """
        shm = self._attach(generation)
        if nbytes > shm.size:
            raise ServerError(
                f"response frame of {nbytes} bytes exceeds segment "
                f"{self.name!r} ({shm.size} bytes)"
            )
        magic, got_seq, n, total_seeds = _HEADER.unpack_from(shm.buf)
        if magic != _FRAME_MAGIC or got_seq != seq:
            raise ServerError(
                f"response segment {self.name!r} frame header mismatch "
                f"(expected seq {seq}) — transport desynchronised"
            )
        if _frame_nbytes(n, total_seeds) != nbytes:
            raise ServerError(
                f"response segment {self.name!r} frame length mismatch"
            )
        qptr, seeds, marg, theta, ints, floats = _frame_arrays(shm.buf, n, total_seeds)
        out: List[SeedSelection] = []
        for i in range(n):
            lo, hi = int(qptr[i]), int(qptr[i + 1])
            row = ints[i]
            io = IOStats(
                read_calls=int(row[5]),
                pages_read=int(row[6]),
                pages_hit=int(row[7]),
                bytes_read=int(row[8]),
            )
            stats = QueryStats(
                elapsed_seconds=float(floats[i, 1]),
                rr_sets_considered=int(row[0]),
                rr_sets_loaded=int(row[1]),
                partitions_loaded=int(row[2]),
                cache_hits=int(row[3]),
                cache_misses=int(row[4]),
                io=io,
            )
            out.append(
                SeedSelection(
                    seeds=tuple(int(s) for s in seeds[lo:hi]),
                    marginal_coverages=tuple(int(m) for m in marg[lo:hi]),
                    theta=int(theta[i]),
                    phi_q=float(floats[i, 0]),
                    stats=stats,
                )
            )
        return out

    def close(self) -> None:
        """Drop the mapping (the segment itself belongs to the worker)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None
