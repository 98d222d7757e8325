"""Flat answer frames in shared memory (repro.core.transport).

The serving pool answers over its pipe and does not use this module;
the frozen benchmark's transport probe does, so its guarantees stay
pinned until the benchmark drops that probe:

* The flat response transport round-trips whole answer batches
  losslessly, grows its segment under the same name (generation bump),
  and rejects desynchronised, foreign, truncated or missing frames with
  a typed error.
* Ownership is explicit: the writer creates its segment exclusively, a
  reader's close never unlinks it, and a writer closed without
  unlinking leaves it for ``unlink_segment``.
* The segment primitive maps one name in several places, never unlinks
  on close, and defers its unmap while numpy views of it are alive.
* No segment ever reaches ``multiprocessing.resource_tracker`` (whose
  per-type name *set*, shared by forked workers, turned interleaved
  register/unregister pairs into ``KeyError`` noise at exit).
* No module of the library imports it, so deleting it with the probe
  touches no serving code.
"""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import transport
from repro.core.results import QueryStats, SeedSelection
from repro.core.transport import (
    ResponseReader,
    ResponseWriter,
    _Segment,
    transport_available,
    unlink_segment,
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
            cache_hits=int(rng.integers(0, 8)),
            cache_misses=int(rng.integers(0, 8)),
            io=io,
        ),
    )


@pytest.fixture()
def channel():
    """``channel(initial_bytes)`` opens a writer and a reader over one
    segment; both are closed after the test, and the name must be gone."""
    ends = []

    def open_channel(initial_bytes=1024):
        ends.append(ResponseWriter("kbtim-test-channel", initial_bytes=initial_bytes))
        ends.append(ResponseReader("kbtim-test-channel"))
        return ends[-2:]

    yield open_channel
    for end in reversed(ends):
        end.close()
    assert shm_entries("kbtim-test-channel") == []


class TestFlatTransport:
    def test_roundtrip_is_lossless(self, channel):
        writer, reader = channel(4096)
        batch = [make_selection(i, n_seeds=i % 5) for i in range(8)]
        nbytes, generation = writer.write(batch, seq=1)
        # dataclass equality: every field survives
        assert reader.read(1, nbytes, generation) == batch

    def test_frame_is_header_pointers_seeds_and_nine_int_columns(self, channel):
        writer, reader = channel(4096)
        batch = [make_selection(i, n_seeds=i) for i in range(4)]
        n, seeds = len(batch), sum(len(s.seeds) for s in batch)
        nbytes, generation = writer.write(batch, seq=5)
        assert nbytes == 8 * (4 + (n + 1) + 2 * seeds + n + 9 * n + 2 * n)
        assert reader.read(5, nbytes, generation) == batch

    def test_growth_bumps_generation_and_reader_reattaches(self, channel):
        writer, reader = channel(256)
        small = [make_selection(1, n_seeds=2)]
        nbytes, generation = writer.write(small, seq=1)
        assert generation == 0
        assert reader.read(1, nbytes, generation) == small
        big = [make_selection(i, n_seeds=4) for i in range(32)]
        nbytes, generation = writer.write(big, seq=2)
        assert generation >= 1  # the segment had to grow
        assert reader.read(2, nbytes, generation) == big

    @pytest.mark.parametrize(
        "seq, extra, match",
        [(2, 0, "desynchronised"), (1, 1024, "exceeds segment"), (1, 8, "mismatch")],
    )
    def test_a_bad_acknowledgement_is_a_typed_error(self, channel, seq, extra, match):
        """A stale ``seq``, a frame longer than the segment, a torn length."""
        writer, reader = channel(1024)
        nbytes, generation = writer.write([make_selection(3, 3)], seq=1)
        with pytest.raises(ServerError, match=match):
            reader.read(seq, nbytes + extra, generation)

    def test_unlink_segment_tolerates_absence(self):
        unlink_segment("kbtim-test-never-created")  # must not raise

    def test_empty_batch_roundtrips(self, channel):
        writer, reader = channel(256)
        nbytes, generation = writer.write([], seq=3)
        assert reader.read(3, nbytes, generation) == []

    def test_foreign_bytes_are_a_typed_error(self):
        """A segment that holds no frame (zeroed: wrong magic) is never
        decoded into answers."""
        foreign = _Segment("kbtim-test-foreign", create=True, size=1024)
        reader = ResponseReader("kbtim-test-foreign")
        try:
            with pytest.raises(ServerError, match="desynchronised"):
                reader.read(0, 64, 0)
        finally:
            reader.close()
            foreign.close()
            unlink_segment("kbtim-test-foreign")

    def test_missing_segment_is_a_typed_error(self):
        reader = ResponseReader("kbtim-test-absent")
        with pytest.raises(ServerError, match="unavailable"):
            reader.read(1, 64, 0)
        reader.close()
        assert shm_entries("kbtim-test-absent") == []

    def test_reader_close_keeps_the_segment_and_reattaches(self, channel):
        writer, reader = channel(1024)
        first = [make_selection(6, 3)]
        nbytes, generation = writer.write(first, seq=1)
        assert reader.read(1, nbytes, generation) == first
        reader.close()  # the segment belongs to the writer
        assert shm_entries("kbtim-test-channel") == ["kbtim-test-channel"]
        second = [make_selection(7, 2)]
        nbytes, generation = writer.write(second, seq=2)
        assert reader.read(2, nbytes, generation) == second

    def test_writer_closed_without_unlink_leaves_segment_to_the_parent(
        self, channel
    ):
        """A writer closed without unlinking leaves a readable segment
        that ``unlink_segment`` then removes."""
        writer, reader = channel(1024)
        batch = [make_selection(8, 4)]
        nbytes, generation = writer.write(batch, seq=1)
        writer.close(unlink=False)
        writer.close()  # idempotent: the first close decided
        assert shm_entries("kbtim-test-channel") == ["kbtim-test-channel"]
        assert reader.read(1, nbytes, generation) == batch
        unlink_segment("kbtim-test-channel")

    def test_writer_refuses_without_shared_memory(self, monkeypatch):
        """Without POSIX shared memory the writer raises ``OSError`` and
        creates nothing."""
        monkeypatch.setattr("repro.core.transport._HAVE_SHM", False)
        assert not transport_available()
        with pytest.raises(OSError, match="unavailable"):
            ResponseWriter("kbtim-test-noshm")
        assert shm_entries("kbtim-test-noshm") == []

    def test_segments_never_talk_to_the_resource_tracker(self, channel, monkeypatch):
        """A response segment's whole life — create, attach, grow
        (unlink + create under the same name), close, unlink — sends the
        tracker nothing: cleanup is explicit, so there is no
        register/unregister pair to interleave."""
        from multiprocessing import resource_tracker

        calls = []
        for name in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker,
                name,
                lambda *args, _name=name: calls.append((_name, args)),
            )
        writer, reader = channel(256)
        batch = [make_selection(i, n_seeds=4) for i in range(32)]
        nbytes, generation = writer.write(batch, seq=1)  # grows: unlink+create
        assert generation >= 1
        assert reader.read(1, nbytes, generation) == batch
        reader.close()
        writer.close()
        unlink_segment("kbtim-test-channel")
        assert calls == []


class TestSegment:
    def test_attach_sees_owner_bytes_and_close_does_not_unlink(self):
        owner = _Segment("kbtim-test-attach", create=True, size=4096)
        try:
            owner.buf[:5] = b"kbtim"
            attached = _Segment("kbtim-test-attach")
            assert attached.size == owner.size == 4096
            assert bytes(attached.buf[:5]) == b"kbtim"
            attached.close()  # an attacher's close leaves the name alive
            assert shm_entries("kbtim-test-attach") == ["kbtim-test-attach"]
            assert bytes(owner.buf[:5]) == b"kbtim"
        finally:
            owner.close()
            unlink_segment("kbtim-test-attach")
        assert shm_entries("kbtim-test-attach") == []

    def test_exclusive_create_refuses_a_live_name_and_leaves_it(self, channel):
        owner, reader = channel(1024)
        batch = [make_selection(9, 3)]
        nbytes, generation = owner.write(batch, seq=1)
        with pytest.raises(FileExistsError):
            ResponseWriter("kbtim-test-channel", initial_bytes=4096)
        assert reader.read(1, nbytes, generation) == batch

    def test_close_defers_unmap_while_arrays_live(self):
        segment = _Segment("kbtim-test-export", create=True, size=4096)
        try:
            view = np.frombuffer(segment.buf, dtype="<i8", count=4)
            view[:] = [1, 2, 3, 4]
            segment.close()  # a live export: only the handle lets go
            segment.close()  # idempotent
            assert segment.buf is None
            assert view.tolist() == [1, 2, 3, 4]
        finally:
            unlink_segment("kbtim-test-export")
        assert shm_entries("kbtim-test-export") == []


def test_no_module_of_the_library_imports_it():
    package = Path(transport.__file__).resolve().parents[1]
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if "repro.core.transport" in names:
                importers.append(str(path.relative_to(package)))
    assert importers == []
