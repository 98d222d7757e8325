"""Failure-injection tests: corrupted and truncated index files.

A disk index that silently returns wrong seeds on bit rot is worse than
one that fails; these tests flip, truncate and transplant bytes in real
index files and require clean :class:`~repro.errors.CorruptIndexError` /
:class:`~repro.errors.StorageError` failures.
"""

import json
import os
import struct

import numpy as np
import pytest

from listform import encode_inverted_lists, encode_rr_sets

from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.errors import CorruptIndexError, ReproError, StorageError
from repro.graph.generators import twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade
from repro.storage.compression import Codec
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.storage.segments import SegmentReader, SegmentWriter


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    graph = twitter_like(150, avg_degree=6, rng=61)
    profiles = zipf_profiles(graph.n, TopicSpace.default(4), rng=62)
    model = IndependentCascade(graph)
    policy = ThetaPolicy(epsilon=1.0, K=20, cap=100)
    tmp = tmp_path_factory.mktemp("corrupt")
    rr_path = str(tmp / "x.rr")
    irr_path = str(tmp / "x.irr")
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=63)
    tables = builder.sample()
    builder.build(rr_path, tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=10, rng=63).build(
        irr_path, tables=tables
    )
    return rr_path, irr_path


def _copy_with_mutation(path, tmp_path, mutate):
    data = bytearray(open(path, "rb").read())
    mutate(data)
    out = str(tmp_path / os.path.basename(path))
    open(out, "wb").write(bytes(data))
    return out


class TestRRIndexCorruption:
    def test_truncated_file(self, built, tmp_path):
        rr_path, _ = built
        out = _copy_with_mutation(rr_path, tmp_path, lambda d: d.__delitem__(slice(-64, None)))
        with pytest.raises((CorruptIndexError, StorageError)):
            RRIndex(out)

    def test_flipped_magic(self, built, tmp_path):
        rr_path, _ = built
        out = _copy_with_mutation(rr_path, tmp_path, lambda d: d.__setitem__(0, d[0] ^ 0xFF))
        with pytest.raises(CorruptIndexError):
            RRIndex(out)

    def test_meta_segment_corruption_detected(self, built, tmp_path):
        """Flipping a byte inside the meta JSON must not parse silently."""
        rr_path, _ = built
        with SegmentReader(rr_path) as reader:
            info = reader.info("meta")
        out = _copy_with_mutation(
            rr_path,
            tmp_path,
            lambda d: d.__setitem__(info.offset + 2, d[info.offset + 2] ^ 0xFF),
        )
        with pytest.raises((CorruptIndexError, ReproError, ValueError)):
            RRIndex(out)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.rr")
        open(path, "wb").close()
        with pytest.raises(CorruptIndexError):
            RRIndex(path)

    def test_wrong_format_tag(self, tmp_path):
        path = str(tmp_path / "wrong.rr")
        with SegmentWriter(path) as writer:
            writer.add("meta", json.dumps({"format": "irr-index"}).encode())
        with pytest.raises(CorruptIndexError, match="not an RR index"):
            RRIndex(path)


class TestRRRecordHeaderHeldAtOpen:
    """Ranged reads skip the segment CRC by design, so ``rr/<kw>``'s
    header and offset table reach the reader unverified: whatever the
    format tables promise about them is enforced when the file opens."""

    @staticmethod
    def _patched(built, tmp_path, offset_in_record, payload):
        rr_path, _ = built
        with SegmentReader(rr_path) as reader:
            at = reader.info("rr/music").offset + offset_in_record
        return _copy_with_mutation(
            rr_path, tmp_path, lambda d: d.__setitem__(slice(at, at + len(payload)), payload)
        )

    def test_zero_group_size_is_a_typed_error(self, built, tmp_path):
        """Was ``ZeroDivisionError: integer division or modulo by zero``."""
        out = self._patched(built, tmp_path, 4, struct.pack("<I", 0))
        with pytest.raises(StorageError, match="group_size must be >= 1"):
            RRIndex(out)

    def test_header_set_count_must_match_the_catalog(self, built, tmp_path):
        rr_path, _ = built
        with RRIndex(rr_path) as index:
            n_sets = index.catalog["music"].n_sets
        out = self._patched(built, tmp_path, 0, struct.pack("<I", n_sets - 1))
        with pytest.raises(CorruptIndexError, match="catalog says"):
            RRIndex(out)

    def test_offset_table_must_ascend(self, built, tmp_path):
        out = self._patched(built, tmp_path, RRSetsRecord.HEADER_SIZE, struct.pack("<Q", 7))
        with pytest.raises(StorageError, match="ascend from 0"):
            RRIndex(out)

    def test_offset_table_must_stay_inside_the_payload(self, built, tmp_path):
        """One group: its offset is fine, so shrink the payload under it."""
        out = self._patched(built, tmp_path, 8, struct.pack("<Q", 0))
        with pytest.raises(CorruptIndexError, match="points past"):
            RRIndex(out)


class TestRecordDecodersUnderFuzz:
    """Seeded byte-mutation fuzz of the two record decoders: whatever the
    bytes, they raise ``StorageError`` or return arrays no longer than the
    format can hold — never ``MemoryError``, ``ValueError``,
    ``IndexError``, ``ZeroDivisionError``, nor an allocation sized by a
    count nobody checked."""

    MUTANTS = 10_000

    @staticmethod
    def _records(codec):
        rng = np.random.default_rng(7)
        sets = [np.unique(rng.integers(0, 900, size=n)) for n in (3, 0, 1, 40, 2, 5)]
        sets[3][-1] = 2**40  # an exception in the gaps stream
        rr = encode_rr_sets(sets, codec, group_size=4)
        _n, _g, payload_len, payload_start = RRSetsRecord.read_header(rr)
        inverted = encode_inverted_lists(list(zip([5, 900, 2, 7, 70_000, 8], sets)), codec)
        return rr[payload_start : payload_start + payload_len], inverted

    @staticmethod
    def _decode_rr(payload):
        ptr, flat = RRSetsRecord.decode_prefix_csr(payload, 6)
        return ptr, flat

    @staticmethod
    def _decode_inverted(record):
        keys, ptr, flat = InvertedListsRecord.decode_csr(record)
        assert len(keys) == len(ptr) - 1
        return ptr, flat

    def _survives(self, decode, data):
        try:
            ptr, flat = decode(data)
        except StorageError:
            return
        # 128 values a byte is the densest the format gets.
        assert ptr[-1] == len(flat) <= 128 * len(data)
        assert ptr.dtype == flat.dtype == np.int64

    @pytest.mark.parametrize("codec", list(Codec))
    @pytest.mark.parametrize("record", ["rr", "inverted"])
    def test_mutants_and_truncations(self, record, codec):
        original = self._records(codec)[record == "inverted"]
        decode = self._decode_inverted if record == "inverted" else self._decode_rr
        self._survives(decode, original)
        for cut in range(len(original)):
            self._survives(decode, original[:cut])
        rng = np.random.default_rng(2024)
        for _ in range(self.MUTANTS):
            mutant = bytearray(original)
            for _ in range(rng.integers(1, 4)):
                mutant[rng.integers(len(mutant))] = rng.integers(256)
            self._survives(decode, bytes(mutant))


class TestIRRIndexCorruption:
    def test_rr_file_rejected_by_irr_reader(self, built):
        rr_path, _ = built
        with pytest.raises(CorruptIndexError, match="not an IRR index"):
            IRRIndex(rr_path)

    def test_irr_file_rejected_by_rr_reader(self, built):
        _, irr_path = built
        with pytest.raises(CorruptIndexError, match="not an RR index"):
            RRIndex(irr_path)

    def test_truncated_irr(self, built, tmp_path):
        _, irr_path = built
        out = _copy_with_mutation(
            irr_path, tmp_path, lambda d: d.__delitem__(slice(len(d) // 2, None))
        )
        with pytest.raises((CorruptIndexError, StorageError)):
            IRRIndex(out)

    def test_payload_corruption_surfaces_on_query(self, built, tmp_path):
        """Damage inside a data segment must fail the query, not corrupt it."""
        _, irr_path = built
        with SegmentReader(irr_path) as reader:
            # Pick the largest data segment to hit payload bytes.
            name = max(
                (n for n in reader.names() if n != "meta"),
                key=lambda n: reader.info(n).length,
            )
            info = reader.info(name)
        out = _copy_with_mutation(
            irr_path,
            tmp_path,
            lambda d: d.__setitem__(
                info.offset + info.length // 2,
                d[info.offset + info.length // 2] ^ 0xFF,
            ),
        )
        index = IRRIndex(out)
        with pytest.raises((CorruptIndexError, StorageError, ReproError)):
            # Touch every keyword so the damaged segment is reached.
            for kw in index.keywords():
                index.query(KBTIMQuery((kw,), 10))
        index.close()


class TestQueryRobustness:
    def test_queries_after_close_fail_cleanly(self, built):
        rr_path, _ = built
        index = RRIndex(rr_path)
        index.close()
        with pytest.raises(Exception):
            index.query(KBTIMQuery(("music",), 2))


class TestFailedRebuildKeepsTheOldIndex:
    """A rebuild that fails after its file is open leaves the index it was
    meant to replace: the writer works in a temporary sibling that only
    a finished write moves over the path, and a failed one deletes."""

    @pytest.mark.parametrize("kind", ["rr", "irr"])
    def test_old_index_still_answers(self, kind, tmp_path, monkeypatch):
        graph = twitter_like(80, avg_degree=5, rng=91)
        profiles = zipf_profiles(graph.n, TopicSpace.default(3), rng=92)
        policy = ThetaPolicy(epsilon=1.0, K=5, cap=60)
        model = IndependentCascade(graph)
        builder, reader = {
            "rr": (RRIndexBuilder(model, profiles, policy=policy, rng=93), RRIndex),
            "irr": (
                IRRIndexBuilder(model, profiles, policy=policy, delta=5, rng=93),
                IRRIndex,
            ),
        }[kind]
        path = str(tmp_path / f"x.{kind}")
        builder.build(path)
        query = KBTIMQuery(("music", "software"), 3)
        with reader(path) as index:
            before = index.query(query)
        old_bytes = open(path, "rb").read()

        written = []
        real_add = SegmentWriter.add

        def failing_add(writer, name, payload):
            if written:  # the file is open and holds a segment already
                raise StorageError("disk full")
            written.append(name)
            real_add(writer, name, payload)

        monkeypatch.setattr(SegmentWriter, "add", failing_add)
        with pytest.raises(StorageError, match="disk full"):
            builder.build(path)
        monkeypatch.undo()

        assert written == ["meta"]
        assert os.listdir(tmp_path) == [f"x.{kind}"]
        assert open(path, "rb").read() == old_bytes
        with reader(path) as index:
            after = index.query(query)
        assert (after.seeds, after.marginal_coverages) == (before.seeds, before.marginal_coverages)

    def test_writer_error_inside_the_block_removes_the_partial_file(self, tmp_path):
        path = tmp_path / "x.idx"
        with pytest.raises(RuntimeError):
            with SegmentWriter(path) as writer:
                writer.add("a", b"1")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []
