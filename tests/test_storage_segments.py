"""Tests for the named-segment container (repro.storage.segments)."""

import struct
import zlib

import pytest

from repro.errors import CorruptIndexError, StorageError
from repro.storage.iostats import IOStats
from repro.storage.segments import SegmentReader, SegmentWriter


@pytest.fixture()
def index_path(tmp_path):
    path = tmp_path / "test.idx"
    with SegmentWriter(path) as writer:
        writer.add("alpha", b"hello world")
        writer.add("beta/0", b"\x00" * 1000)
        writer.add("empty", b"")
    return path


class TestWriter:
    def test_duplicate_names_rejected(self, tmp_path):
        with SegmentWriter(tmp_path / "x.idx") as writer:
            writer.add("a", b"1")
            with pytest.raises(StorageError, match="duplicate"):
                writer.add("a", b"2")
            writer.add("b", b"2")

    def test_empty_name_rejected(self, tmp_path):
        with SegmentWriter(tmp_path / "x.idx") as writer:
            with pytest.raises(StorageError):
                writer.add("", b"1")
            writer.add("ok", b"1")

    def test_add_after_finalize_rejected(self, tmp_path):
        writer = SegmentWriter(tmp_path / "x.idx")
        writer.add("a", b"1")
        writer.finalize()
        with pytest.raises(StorageError):
            writer.add("b", b"2")

    def test_finalize_idempotent(self, tmp_path):
        writer = SegmentWriter(tmp_path / "x.idx")
        writer.add("a", b"1")
        writer.finalize()
        writer.finalize()

    def test_file_is_header_payloads_toc_footer(self, tmp_path):
        path = tmp_path / "x.idx"
        writer = SegmentWriter(path)
        writer.add("a", b"12345")
        writer.add("bc", b"678")
        writer.finalize()
        header = b"KBTIMSEG" + struct.pack("<HH", 1, 0)
        payloads = b"12345678"
        toc = struct.pack("<I", 2)
        for name, offset, payload in ((b"a", 12, b"12345"), (b"bc", 17, b"678")):
            toc += struct.pack("<H", len(name)) + name
            toc += struct.pack("<QQI", offset, len(payload), zlib.crc32(payload))
        footer = struct.pack("<QI", len(header) + len(payloads), zlib.crc32(toc))
        assert path.read_bytes() == header + payloads + toc + footer

    def test_writer_takes_no_stats(self, tmp_path):
        with pytest.raises(TypeError):
            SegmentWriter(tmp_path / "x.idx", stats=IOStats())  # not an option


class TestReader:
    def test_names_in_file_order(self, index_path):
        with SegmentReader(index_path) as reader:
            assert reader.names() == ["alpha", "beta/0", "empty"]

    def test_read_contents(self, index_path):
        with SegmentReader(index_path) as reader:
            assert reader.read("alpha") == b"hello world"
            assert reader.read("beta/0") == b"\x00" * 1000
            assert reader.read("empty") == b""

    def test_contains(self, index_path):
        with SegmentReader(index_path) as reader:
            assert "alpha" in reader
            assert "gamma" not in reader

    def test_missing_segment(self, index_path):
        with SegmentReader(index_path) as reader:
            with pytest.raises(CorruptIndexError, match="missing segment"):
                reader.read("gamma")

    def test_read_range(self, index_path):
        with SegmentReader(index_path) as reader:
            assert reader.read_range("alpha", 6, 5) == b"world"

    def test_read_range_bounds_checked(self, index_path):
        with SegmentReader(index_path) as reader:
            with pytest.raises(StorageError):
                reader.read_range("alpha", 6, 100)

    def test_io_accounting_per_read(self, index_path):
        stats = IOStats()
        with SegmentReader(index_path, stats=stats) as reader:
            opened = stats.read_calls  # TOC reads at open
            reader.read("alpha")
            assert stats.read_calls == opened + 1

    def test_every_segment_reads_back_crc_checked(self, index_path):
        with SegmentReader(index_path) as reader:
            got = {name: reader.read(name) for name in reader.names()}
            for name, payload in got.items():
                assert zlib.crc32(payload) == reader.info(name).crc32
        assert got == {"alpha": b"hello world", "beta/0": b"\x00" * 1000, "empty": b""}

    def test_read_after_close_is_a_storage_error(self, index_path):
        reader = SegmentReader(index_path)
        reader.close()
        with pytest.raises(StorageError, match="is closed"):
            reader.read("alpha")
        with pytest.raises(StorageError, match="is closed"):
            reader.read_range_view("alpha", 0, 1)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
        with pytest.raises(CorruptIndexError, match="magic"):
            SegmentReader(path)

    def test_too_small(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"xy")
        with pytest.raises(CorruptIndexError, match="too small"):
            SegmentReader(path)

    def test_flipped_payload_byte_detected(self, index_path):
        data = bytearray(index_path.read_bytes())
        # Flip one byte inside the "alpha" payload (right after header).
        data[13] ^= 0xFF
        index_path.write_bytes(bytes(data))
        with SegmentReader(index_path) as reader:
            with pytest.raises(CorruptIndexError, match="checksum"):
                reader.read("alpha")

    def test_truncated_footer_detected(self, index_path):
        data = index_path.read_bytes()
        index_path.write_bytes(data[:-3])
        with pytest.raises(CorruptIndexError):
            SegmentReader(index_path)

    def test_corrupted_toc_detected(self, index_path):
        data = bytearray(index_path.read_bytes())
        data[-20] ^= 0x01  # inside TOC region
        index_path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndexError):
            SegmentReader(index_path)

    def test_unsupported_version_detected(self, index_path):
        data = bytearray(index_path.read_bytes())
        data[8] = 2  # the u16 version follows the 8-byte magic
        index_path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndexError, match="unsupported format version 2"):
            SegmentReader(index_path)

    def test_segment_past_the_data_region_detected(self, index_path):
        """A TOC whose checksum is right but whose first entry claims
        bytes beyond the data region (a writer bug, not bit rot)."""
        data = bytearray(index_path.read_bytes())
        toc_offset, _crc = struct.unpack_from("<QI", data, len(data) - 12)
        # TOC: n u32, then name_len u16 | name | offset u64 | length u64 | crc u32
        (name_len,) = struct.unpack_from("<H", data, toc_offset + 4)
        struct.pack_into("<Q", data, toc_offset + 6 + name_len + 8, toc_offset + 1)
        struct.pack_into(
            "<I", data, len(data) - 4, zlib.crc32(bytes(data[toc_offset:-12]))
        )
        index_path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndexError, match="exceeds data region"):
            SegmentReader(index_path)


class TestViewReads:
    """PR 8: zero-copy segment accessors (read_view / read_range_view)."""

    def test_read_view_matches_read_and_checks_crc(self, index_path):
        with SegmentReader(index_path) as reader:
            view = reader.read_view("alpha")
            assert isinstance(view, memoryview)
            assert bytes(view) == reader.read("alpha") == b"hello world"

    def test_read_range_view_matches_read_range(self, index_path):
        with SegmentReader(index_path) as reader:
            assert bytes(reader.read_range_view("alpha", 6, 5)) == b"world"
            assert reader.read_range("alpha", 6, 5) == b"world"

    def test_read_range_view_bounds_checked(self, index_path):
        with SegmentReader(index_path) as reader:
            with pytest.raises(StorageError, match="outside segment"):
                reader.read_range_view("alpha", 8, 10)

    def test_view_accounting_matches_bytes_accounting(self, index_path):
        copy_stats = IOStats()
        view_stats = IOStats()
        with SegmentReader(index_path, stats=copy_stats) as reader:
            reader.read("beta/0")
        with SegmentReader(index_path, stats=view_stats) as reader:
            reader.read_view("beta/0")
        assert copy_stats.read_calls == view_stats.read_calls
        assert copy_stats.pages_read == view_stats.pages_read
        assert copy_stats.bytes_read == view_stats.bytes_read

    def test_corrupt_payload_fails_view_crc(self, tmp_path):
        path = tmp_path / "corrupt.idx"
        with SegmentWriter(path) as writer:
            writer.add("alpha", b"hello world")
        raw = bytearray(path.read_bytes())
        raw[12] ^= 0xFF  # flip a payload byte, leave the TOC intact
        path.write_bytes(bytes(raw))
        with SegmentReader(path) as reader:
            with pytest.raises(CorruptIndexError, match="checksum"):
                reader.read_view("alpha")
