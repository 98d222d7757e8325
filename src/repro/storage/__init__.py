"""Disk substrate: I/O accounting, compression codecs, paged files, segments.

The paper's RR/IRR indexes are *disk* indexes: their value proposition is
moving sampling cost offline and paying only bounded I/O at query time
(Tables 4 and 6).  This package provides the pieces a real storage engine
needs so those claims can be measured rather than modelled:

* :mod:`repro.storage.iostats` — physical-I/O counters;
* :mod:`repro.storage.varint` / :mod:`repro.storage.bitpack` — integer
  coding primitives (the LEB128 header fields; fixed-width bit runs);
* :mod:`repro.storage.compression` — the columnar stream format and its
  two codecs, RAW and PFOR (gaps + PFoR-style blocks) standing in for
  FastPFOR, the pair Table 4 compares (byte layout: "On-disk format" in
  ``docs/ARCHITECTURE.md``);
* :mod:`repro.storage.pager` — paged file reads through an LRU buffer pool;
* :mod:`repro.storage.segments` — a named-segment container file with
  checksummed table of contents, used by both index formats;
* :mod:`repro.storage.records` — record encodings for RR-set collections
  and inverted lists.
"""

from repro.storage.iostats import IOStats
from repro.storage.compression import Codec
from repro.storage.pager import BufferPool, PagedFile
from repro.storage.segments import SegmentReader, SegmentWriter
from repro.storage.records import (
    RRSetsRecord,
    InvertedListsRecord,
)

__all__ = [
    "IOStats",
    "Codec",
    "PagedFile",
    "BufferPool",
    "SegmentWriter",
    "SegmentReader",
    "RRSetsRecord",
    "InvertedListsRecord",
]
