"""Index integrity checking.

:func:`verify_index` is the full-file check a deployment runs before it
serves a file: every segment's CRC, catalog/segment cross-references,
and per-keyword record consistency (set counts, inverted-list
agreement).  The deep check re-derives the inverted mapping from the RR
sets and compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.catalog import RR_FORMAT, Catalog, read_catalog
from repro.core.rr_index import invert_csr
from repro.errors import CorruptIndexError
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.storage.segments import SegmentReader
from repro.utils.rrsets import FlatRRSets

__all__ = ["verify_index", "IndexCheckReport"]


@dataclass(frozen=True)
class IndexCheckReport:
    """Result of :func:`verify_index`."""

    path: str
    format: str
    keywords_checked: int
    segments_checked: int
    rr_sets_checked: int

    def __str__(self) -> str:
        return (
            f"{self.path}: {self.format} OK — {self.keywords_checked} keywords, "
            f"{self.segments_checked} segments, {self.rr_sets_checked:,} RR sets"
        )


def verify_index(path: str, *, deep: bool = True) -> IndexCheckReport:
    """Verify an index file end to end.

    Shallow checks (always): segment CRCs, catalog completeness, record
    headers.  Deep checks (``deep=True``): decode every RR set, rebuild
    the inverted mapping and compare with the stored ``L_w`` / ``IL_w``.

    Raises :class:`~repro.errors.CorruptIndexError` on the first
    inconsistency; returns a summary report on success.
    """
    with SegmentReader(path) as reader:
        catalog = read_catalog(reader)
        verify_keyword = (
            _verify_rr_keyword if catalog.format == RR_FORMAT else _verify_irr_keyword
        )
        rr_sets_checked = sum(
            verify_keyword(reader, catalog, kw, deep)
            for kw in sorted(catalog.keywords)
        )
        return IndexCheckReport(
            path=path,
            format=catalog.format,
            keywords_checked=len(catalog.keywords),
            segments_checked=len(reader.names()),
            rr_sets_checked=rr_sets_checked,
        )


def _verify_rr_keyword(
    reader: SegmentReader, catalog: Catalog, kw: str, deep: bool
) -> int:
    # Every read is CRC-checked and names a missing segment.
    record = reader.read(f"rr/{kw}")
    n_sets, _group, payload_len, payload_start = RRSetsRecord.read_header(record)
    if n_sets != catalog.keywords[kw].n_sets:
        raise CorruptIndexError(
            f"{reader.path}: keyword {kw!r} catalog says "
            f"{catalog.keywords[kw].n_sets} sets, record header says {n_sets}"
        )
    inverted = reader.read(f"inv/{kw}")
    if not deep:
        return 0
    # Re-derive L_w from the RR sets with the writer's own inversion and
    # compare it, array for array, with what the file stores.
    set_ptr, set_vertices = RRSetsRecord.decode_prefix_csr(
        record[payload_start : payload_start + payload_len], n_sets
    )
    rebuilt = invert_csr(FlatRRSets(set_ptr, set_vertices))
    stored = InvertedListsRecord.decode_csr(inverted)
    if len(stored[0]) != len(rebuilt[0]):
        raise CorruptIndexError(
            f"{reader.path}: keyword {kw!r} inverted list count mismatch"
        )
    wrong = _first_wrong_list(stored, rebuilt)
    if wrong is not None:
        raise CorruptIndexError(
            f"{reader.path}: keyword {kw!r} inverted list of vertex "
            f"{int(stored[0][wrong])} disagrees with RR sets"
        )
    return n_sets


def _first_wrong_list(stored: tuple, expected: tuple) -> "int | None":
    """Index of the first ``(key, ids)`` list of two equally long CSR
    triples ``(keys, ptr, flat)`` that differs, or ``None``."""
    keys, ptr, flat = stored
    exp_keys, exp_ptr, exp_flat = expected
    wrong = (keys != exp_keys) | (np.diff(ptr) != np.diff(exp_ptr))
    if wrong.any():
        return int(np.argmax(wrong))
    differing = np.flatnonzero(flat != exp_flat)
    if len(differing):
        return int(np.searchsorted(ptr, differing[0], side="right")) - 1
    return None


def _verify_irr_keyword(
    reader: SegmentReader, catalog: Catalog, kw: str, deep: bool
) -> int:
    path = reader.path
    n_sets = catalog.keywords[kw].n_sets
    n_partitions = catalog.partitions[kw][0]
    ip_record = reader.read(f"ip/{kw}")
    if not deep:
        for p in range(n_partitions):  # present, though not read
            reader.info(f"il/{kw}/{p}")
            reader.info(f"ir/{kw}/{p}")
        return 0

    # Rebuild the global picture from partitions and cross-check IP and
    # the per-partition sort/claim invariants.
    empty = np.empty(0, dtype=np.int64)
    vertices, firsts, claimed = [empty], [empty], [empty]
    previous_last_len = None
    for p in range(n_partitions):
        il_keys, il_ptr, il_flat = InvertedListsRecord.decode_csr(
            reader.read(f"il/{kw}/{p}")
        )
        ir_keys, _ir_ptr, _ir_flat = InvertedListsRecord.decode_csr(
            reader.read(f"ir/{kw}/{p}")
        )
        lengths = np.diff(il_ptr)
        if np.any(np.diff(lengths) > 0):
            raise CorruptIndexError(f"{path}: il/{kw}/{p} lists are not length-sorted")
        if len(lengths):
            if previous_last_len is not None and lengths[0] > previous_last_len:
                raise CorruptIndexError(
                    f"{path}: il/{kw}/{p} breaks the global length order"
                )
            previous_last_len = lengths[-1]
        occupied = lengths > 0
        vertices.append(il_keys[occupied])
        firsts.append(il_flat[il_ptr[:-1][occupied]])
        claimed.append(ir_keys)
    claimed = np.concatenate(claimed)
    set_ids, claims = np.unique(claimed, return_counts=True)
    if np.any(claims > 1):
        raise CorruptIndexError(
            f"{path}: RR set {int(set_ids[np.argmax(claims > 1)])} of {kw!r} "
            "claimed twice"
        )
    if len(claimed) != n_sets:
        raise CorruptIndexError(
            f"{path}: keyword {kw!r} partitions hold {len(claimed)} sets, "
            f"catalog says {n_sets}"
        )
    # IP_w is each vertex's first occurrence: one id per vertex, equal to
    # the head of the vertex's (single) inverted list.
    expected_keys, index = np.unique(np.concatenate(vertices), return_index=True)
    expected_firsts = np.concatenate(firsts)[index]
    ip_keys, ip_ptr, ip_flat = InvertedListsRecord.decode_csr(ip_record)
    order = np.argsort(ip_keys, kind="stable")
    if not (
        np.array_equal(ip_ptr, np.arange(len(ip_keys) + 1))
        and np.array_equal(ip_keys[order], expected_keys)
        and np.array_equal(ip_flat[order], expected_firsts)
    ):
        raise CorruptIndexError(
            f"{path}: keyword {kw!r} IP map disagrees with partitions"
        )
    return n_sets
