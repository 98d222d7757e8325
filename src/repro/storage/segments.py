"""Named-segment container file.

Both index formats (RR and IRR) persist a set of named byte segments — per
keyword: the RR-set region, the inverted-list region, partition tables,
first-occurrence maps.  This module provides the container:

```
+--------------------------------------------------------------+
| magic "KBTIMSEG" | version u16 | reserved u16                 |
| segment payloads, back to back                                |
| TOC: n u32, then per segment:                                 |
|   name_len u16 | name utf-8 | offset u64 | length u64 | crc32 |
| TOC offset u64 | TOC crc32 u32                                |
+--------------------------------------------------------------+
```

Writers stream segments sequentially (index construction is append-only)
into a temporary sibling that replaces the target only once complete;
readers fetch byte ranges through an ``mmap``-backed
:class:`~repro.storage.pager.PagedFile`, so every access is accounted,
and the ``*_view`` accessors hand decoders zero-copy ``memoryview``
slices of the map.
Per-segment CRCs catch torn writes and give
:class:`~repro.errors.CorruptIndexError` a concrete meaning.
"""

from __future__ import annotations

import os
import struct
import uuid
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import CorruptIndexError, StorageError
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool, PagedFile

__all__ = ["SegmentWriter", "SegmentReader", "SegmentInfo"]

PathLike = Union[str, os.PathLike]

_MAGIC = b"KBTIMSEG"
_VERSION = 1
_HEADER = struct.Struct("<8sHH")
_TOC_ENTRY = struct.Struct("<QQI")
_FOOTER = struct.Struct("<QI")


@dataclass(frozen=True)
class SegmentInfo:
    """Table-of-contents entry for one segment."""

    name: str
    offset: int
    length: int
    crc32: int


class SegmentWriter:
    """Sequentially writes named segments and finalises the TOC.

    Usage::

        with SegmentWriter(path) as writer:
            writer.add("rr/music", rr_bytes)
            writer.add("inv/music", inv_bytes)

    The segments go to a temporary sibling of ``path`` that
    :meth:`finalize` moves over it (``os.replace``, atomic on one file
    system); a write that fails removes it.  So ``path`` holds either the
    file it held before or the complete new one, never a partial file: a
    failed rebuild leaves the index it was meant to replace intact.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._partial = f"{self.path}.{uuid.uuid4().hex}.partial"
        self._fh = open(self._partial, "xb")
        self._fh.write(_HEADER.pack(_MAGIC, _VERSION, 0))
        self._segments: List[SegmentInfo] = []
        self._names: Dict[str, int] = {}
        self._offset = _HEADER.size
        self._finalized = False

    def add(self, name: str, payload: bytes) -> None:
        """Append one segment; names must be unique non-empty strings."""
        if self._finalized:
            raise StorageError("cannot add segments after finalize()")
        if not name:
            raise StorageError("segment name must be non-empty")
        if name in self._names:
            raise StorageError(f"duplicate segment name {name!r}")
        self._fh.write(payload)
        info = SegmentInfo(
            name=name,
            offset=self._offset,
            length=len(payload),
            crc32=zlib.crc32(payload),
        )
        self._names[name] = len(self._segments)
        self._segments.append(info)
        self._offset += len(payload)

    def finalize(self) -> None:
        """Write TOC + footer, close the file and move it to ``path``
        (idempotent)."""
        if self._finalized:
            return
        toc = bytearray()
        toc += struct.pack("<I", len(self._segments))
        for info in self._segments:
            name_bytes = info.name.encode("utf-8")
            toc += struct.pack("<H", len(name_bytes))
            toc += name_bytes
            toc += _TOC_ENTRY.pack(info.offset, info.length, info.crc32)
        toc_offset = self._offset
        footer = _FOOTER.pack(toc_offset, zlib.crc32(bytes(toc)))
        self._fh.write(bytes(toc))
        self._fh.write(footer)
        self._fh.close()
        os.replace(self._partial, self.path)
        self._finalized = True

    def _discard(self) -> None:
        """Close and delete the partial file; ``path`` is left untouched."""
        self._fh.close()
        if not self._finalized:
            os.unlink(self._partial)

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            self._discard()
            return
        try:
            self.finalize()
        except BaseException:
            self._discard()
            raise


class SegmentReader:
    """Random access to segments through an accounted, paged file."""

    def __init__(
        self,
        path: PathLike,
        *,
        stats: Optional[IOStats] = None,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.stats = stats if stats is not None else IOStats()
        self._file = PagedFile(path, stats=self.stats, pool=pool)
        self.path = self._file.path
        try:
            self._segments = self._load_toc()
        except BaseException:
            # A reader that failed to open owns nothing: the traceback
            # keeps ``self`` alive, so the file and map must not wait
            # for it to be collected.
            self._file.close()
            raise

    # ------------------------------------------------------------------
    def _load_toc(self) -> Dict[str, SegmentInfo]:
        f = self._file
        if f.size < _HEADER.size + _FOOTER.size:
            raise CorruptIndexError(f"{f.path}: file too small to be an index")
        magic, version, _reserved = _HEADER.unpack(f.read(0, _HEADER.size))
        if magic != _MAGIC:
            raise CorruptIndexError(f"{f.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise CorruptIndexError(
                f"{f.path}: unsupported format version {version}"
            )
        toc_offset, toc_crc = _FOOTER.unpack(
            f.read(f.size - _FOOTER.size, _FOOTER.size)
        )
        if not _HEADER.size <= toc_offset <= f.size - _FOOTER.size:
            raise CorruptIndexError(f"{f.path}: TOC offset out of bounds")
        toc = f.read(toc_offset, f.size - _FOOTER.size - toc_offset)
        if zlib.crc32(toc) != toc_crc:
            raise CorruptIndexError(f"{f.path}: TOC checksum mismatch")

        segments: Dict[str, SegmentInfo] = {}
        (count,) = struct.unpack_from("<I", toc, 0)
        pos = 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", toc, pos)
            pos += 2
            name = toc[pos : pos + name_len].decode("utf-8")
            pos += name_len
            offset, length, crc = _TOC_ENTRY.unpack_from(toc, pos)
            pos += _TOC_ENTRY.size
            if offset + length > toc_offset:
                raise CorruptIndexError(
                    f"{f.path}: segment {name!r} exceeds data region"
                )
            segments[name] = SegmentInfo(name, offset, length, crc)
        return segments

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All segment names in file order."""
        return sorted(self._segments, key=lambda n: self._segments[n].offset)

    def __contains__(self, name: object) -> bool:
        return name in self._segments

    def info(self, name: str) -> SegmentInfo:
        """TOC entry for ``name``."""
        try:
            return self._segments[name]
        except KeyError:
            raise CorruptIndexError(
                f"{self._file.path}: missing segment {name!r}"
            ) from None

    def read(self, name: str) -> bytes:
        """Read a full segment (one logical I/O) and verify its CRC."""
        return bytes(self.read_view(name))

    def read_view(self, name: str) -> memoryview:
        """Read a full segment as a zero-copy ``memoryview``, CRC-checked.

        The view aliases the file map — decoders consume it without any
        intermediate ``bytes`` materialisation.  One logical I/O, like
        :meth:`read`.  See :meth:`repro.storage.pager.PagedFile.read_view`
        for lifetime rules.
        """
        info = self.info(name)
        payload = self._file.read_view(info.offset, info.length)
        if zlib.crc32(payload) != info.crc32:
            raise CorruptIndexError(
                f"{self._file.path}: segment {name!r} checksum mismatch"
            )
        return payload

    def read_range(self, name: str, start: int, length: int) -> bytes:
        """Read ``length`` bytes at ``start`` *within* a segment.

        Partial reads skip CRC verification by necessity (the checksum
        covers the whole segment); the record formats carry their own
        structural validation.
        """
        return bytes(self.read_range_view(name, start, length))

    def read_range_view(self, name: str, start: int, length: int) -> memoryview:
        """Zero-copy variant of :meth:`read_range`.

        Returns a ``memoryview`` of ``length`` bytes at ``start`` within
        the segment, aliasing the file map.  Like
        :meth:`read_range`, partial reads cannot be CRC-verified.
        """
        info = self.info(name)
        if start < 0 or length < 0 or start + length > info.length:
            raise StorageError(
                f"range [{start}, {start + length}) outside segment "
                f"{name!r} of length {info.length}"
            )
        return self._file.read_view(info.offset + start, length)

    def close(self) -> None:
        """Release the underlying file."""
        self._file.close()

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
