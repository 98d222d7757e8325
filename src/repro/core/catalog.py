"""The index file's ``meta`` catalog and the reader core both indexes share.

The RR index (Algorithms 1-2) and the IRR index (Algorithms 3-4) are
built from the same sample tables, live in the same segment container and
open with the same ``meta`` JSON document (byte layout: "On-disk format"
in ``docs/ARCHITECTURE.md``).  This module is the only place that knows
that document:

* writer side — :func:`keyword_entries` + :func:`encode_catalog`, called
  by both index writers;
* reader side — :func:`read_catalog`, the one parse and the one
  ``format``, ``version`` and ``codec`` check, returning a typed
  :class:`Catalog`;
* :class:`IndexReader` — what :class:`~repro.core.rr_index.RRIndex` and
  :class:`~repro.core.irr_index.IRRIndex` have in common: open the
  container, load the catalog, plan a query's ``θ^Q`` prefixes
  (:func:`plan_theta_q`, Eqn. 11), look up one query keyword's decoded
  value through the reader's :class:`BlockCache`, answer a query, close.
  It is the whole protocol :class:`~repro.core.server.KBTIMServer` and
  the pool serve, whichever index a file holds; :func:`open_index`
  picks the reader from the catalog's ``format``.
* :class:`BlockCache` — the one cache of decoded index data: one per
  reader, keyed by keyword, each entry all the reader decoded of it;
* :func:`verify_index` — the integrity check of either format: every
  segment's CRC and presence, the catalog and record headers (an open),
  and, deep, each keyword's ``verify``, which re-derives what the
  writer stored from the stored RR sets with the writer's own code and
  compares it through :func:`check_lists`.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.offline import KeywordTable
from repro.core.query import KBTIMQuery, resolve_keyword, resolve_unique
from repro.core.results import SeedSelection
from repro.errors import CorruptIndexError, IndexError_, QueryError
from repro.storage.compression import Codec
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool
from repro.storage.segments import SegmentReader

__all__ = [
    "RR_FORMAT",
    "IRR_FORMAT",
    "FORMAT_VERSION",
    "KeywordMeta",
    "Catalog",
    "build_keyword_meta",
    "keyword_entries",
    "encode_catalog",
    "read_catalog",
    "plan_theta_q",
    "BlockCache",
    "IndexReader",
    "open_index",
    "IndexCheckReport",
    "verify_index",
]

RR_FORMAT = "rr-index"
IRR_FORMAT = "irr-index"
#: Version of the record layout under the catalog (2 = columnar streams,
#: 3 = one IRR segment per load unit).  Written by every builder and
#: checked at open: no older reader is kept, every index is rebuilt from
#: its sample tables.
FORMAT_VERSION = 3

#: How an error message names each known format.
_KINDS = {RR_FORMAT: "an RR index", IRR_FORMAT: "an IRR index"}


@dataclass(frozen=True)
class KeywordMeta:
    """Catalog entry for one indexed keyword."""

    name: str
    topic_id: int
    theta: int
    tf_sum: float
    idf: float
    phi_w: float
    n_sets: int


#: The JSON fields of one keyword entry, in file order, with their types
#: (every :class:`KeywordMeta` field but the name, which is the key).
_ENTRY_FIELDS = (
    ("topic_id", int),
    ("theta", int),
    ("tf_sum", float),
    ("idf", float),
    ("phi_w", float),
    ("n_sets", int),
)


#: The fields the IRR writer appends to each keyword entry, in file order.
_PARTITION_FIELDS = (
    ("n_partitions", int),
    ("partition_first_lens", list),
    ("partition_set_counts", list),
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Which JSON values each field type admits (an int is a valid float; the
#: catalog's only lists are lists of ints).
_ADMITS: Dict[type, Callable[[object], bool]] = {
    int: _is_int,
    float: lambda value: _is_int(value) or isinstance(value, float),
    dict: lambda value: isinstance(value, dict),
    list: lambda value: isinstance(value, list) and all(map(_is_int, value)),
}


@dataclass(frozen=True)
class Catalog:
    """One parsed ``meta`` document."""

    format: str
    n_vertices: int
    epsilon: float
    K: int
    codec: Codec
    #: Partition size δ (IRR files only).
    delta: Optional[int]
    keywords: Dict[str, KeywordMeta]
    topic_names: Dict[int, str]
    #: Per keyword, the entry's partition fields as stored
    #: (:data:`_PARTITION_FIELDS`; IRR files only, empty for RR).
    partitions: Dict[str, dict]


# ----------------------------------------------------------------------
# writer side
# ----------------------------------------------------------------------
def build_keyword_meta(tables: Mapping[str, KeywordTable]) -> Dict[str, KeywordMeta]:
    """Catalog entries from sample tables, in the file's keyword order."""
    return {
        name: KeywordMeta(
            name=table.name,
            topic_id=table.topic_id,
            theta=table.theta,
            tf_sum=table.tf_sum,
            idf=table.idf,
            phi_w=table.phi_w,
            n_sets=len(table.rr_sets),
        )
        for name, table in sorted(tables.items())
    }


def keyword_entries(tables: Mapping[str, KeywordTable]) -> Dict[str, dict]:
    """The ``keywords`` object of the document, from sample tables (the
    IRR writer appends its partition fields to each entry)."""
    return {
        name: {field: getattr(meta, field) for field, _ in _ENTRY_FIELDS}
        for name, meta in build_keyword_meta(tables).items()
    }


def encode_catalog(
    fmt: str,
    *,
    n_vertices: int,
    epsilon: float,
    K: int,
    codec: Codec,
    keywords: Mapping[str, dict],
    **header: int,
) -> bytes:
    """Serialise the ``meta`` segment (``header``: IRR's ``delta``)."""
    meta = {
        "format": fmt,
        "version": FORMAT_VERSION,
        "n_vertices": n_vertices,
        "epsilon": epsilon,
        "K": K,
        "codec": codec.value,
        **header,
        "keywords": keywords,
    }
    return json.dumps(meta).encode("utf-8")


# ----------------------------------------------------------------------
# reader side
# ----------------------------------------------------------------------
def read_catalog(reader: SegmentReader, expected: Optional[str] = None) -> Catalog:
    """Parse an open container's ``meta`` segment (one CRC-checked read).

    Raises
    ------
    CorruptIndexError
        If the document is not a JSON object, its format is not
        ``expected`` (when given), is not a format this library writes,
        is not at :data:`FORMAT_VERSION`, names a codec this release does
        not read, or lacks a field (or holds one of the wrong type), or
        an IRR partition list's length is not its ``n_partitions``.
    """
    path = reader.path
    payload = reader.read("meta")
    try:
        meta = json.loads(payload.decode("utf-8"))
    except ValueError:  # not UTF-8, or not JSON
        meta = None
    if not isinstance(meta, dict):
        raise CorruptIndexError(f"{path}: index catalog is not a JSON object")
    fmt = meta.get("format")
    if expected is not None and fmt != expected:
        raise CorruptIndexError(
            f"{reader.path}: not {_KINDS[expected]} (format={fmt!r})"
        )
    if fmt not in _KINDS:
        raise CorruptIndexError(f"{reader.path}: unknown index format {fmt!r}")
    if meta.get("version") != FORMAT_VERSION:
        raise CorruptIndexError(
            f"{reader.path}: index format version {meta.get('version')!r}, this "
            f"release reads version {FORMAT_VERSION}: rebuild the index with "
            "this release"
        )
    try:
        codec = Codec(meta.get("codec"))
    except ValueError:
        raise CorruptIndexError(
            f"{reader.path}: index codec {meta.get('codec')!r}, this release "
            f"reads codecs {[c.value for c in Codec]}: rebuild the index with "
            "this release"
        ) from None
    entries = _field(path, meta, "keywords", dict)
    entries = {
        name: _field(path, entries, name, dict, "keywords.") for name in entries
    }
    keywords = {
        name: KeywordMeta(
            name=name,
            **{
                field: _field(path, entry, field, kind, f"keywords.{name}.")
                for field, kind in _ENTRY_FIELDS
            },
        )
        for name, entry in entries.items()
    }
    irr = fmt == IRR_FORMAT
    partitions = {}
    if irr:
        for name, entry in entries.items():
            where = f"keywords.{name}."
            fields = {
                field: _field(path, entry, field, kind, where)
                for field, kind in _PARTITION_FIELDS
            }
            n_partitions = fields["n_partitions"]
            for field in ("partition_first_lens", "partition_set_counts"):
                if len(fields[field]) != n_partitions:
                    raise CorruptIndexError(
                        f"{path}: index catalog field {where}{field} has "
                        f"{len(fields[field])} entries for {n_partitions} partitions"
                    )
            partitions[name] = fields
    return Catalog(
        format=fmt,
        n_vertices=_field(path, meta, "n_vertices", int),
        epsilon=_field(path, meta, "epsilon", float),
        K=_field(path, meta, "K", int),
        codec=codec,
        delta=_field(path, meta, "delta", int) if irr else None,
        keywords=keywords,
        topic_names={entry.topic_id: name for name, entry in keywords.items()},
        partitions=partitions,
    )


def _field(path: str, document: dict, key: str, kind: type, where: str = ""):
    """``document[key]`` as ``kind``; a missing or mistyped value raises
    :class:`CorruptIndexError` naming the file and the field (``where``
    is the field's enclosing path, e.g. ``"keywords.music."``)."""
    value = document.get(key)
    if not _ADMITS[kind](value):
        found = "missing" if key not in document else f"not {kind.__name__}: {value!r}"
        raise CorruptIndexError(f"{path}: index catalog field {where}{key} is {found}")
    return kind(value)


def plan_theta_q(
    keywords: Sequence[str], catalog: Mapping[str, KeywordMeta]
) -> Tuple[float, Dict[str, int], float]:
    """Eqn. 11 planning shared by Algorithm 2 and Algorithm 4.

    Returns ``(theta_q, per_keyword_counts, phi_q)`` where
    ``per_keyword_counts[w] = θ^Q_w`` is the number of RR sets to activate
    for keyword ``w`` (``θ^Q · p_w``, clamped into ``[1, θ_w]``).
    """
    metas = []
    for kw in keywords:
        meta = catalog.get(kw)
        if meta is None:
            raise IndexError_(f"keyword {kw!r} is not in the index")
        metas.append(meta)
    phi_q = sum(m.phi_w for m in metas)
    if phi_q <= 0:
        raise QueryError("query keywords carry no relevance mass")
    theta_q = min(m.theta / (m.phi_w / phi_q) for m in metas)
    counts: Dict[str, int] = {}
    for m in metas:
        p_w = m.phi_w / phi_q
        count = int(math.floor(theta_q * p_w + 1e-9))
        counts[m.name] = max(1, min(m.n_sets, count))
    return theta_q, counts, phi_q


#: How a query gets one keyword's decoded value:
#: ``lookup(keyword, count) -> (value, hit)`` (see :meth:`IndexReader.lookup`).
Lookup = Callable[[str, int], Tuple[object, bool]]


class BlockCache:
    """A bounded LRU of decoded values, one entry per keyword.

    :meth:`get` returns ``(value, hit)``: a resident value is a **hit**
    — a decode spared — and ``load`` is not called; otherwise ``load()``
    produces the value (never ``None``), which is admitted (least
    recently used entries evicted beyond ``capacity``).  ``capacity=0``
    retains nothing: every call loads.  Values are handed out without copying: their arrays are
    read-only, and the one part that changes, an IRR entry's list of
    decoded partitions, only grows, in partition order.

    A cache belongs to one reader and, like it, to one caller at a time
    (a :class:`~repro.core.server.KBTIMServer` serialises its callers; a
    pool worker serves one request at a time), so it takes no lock.

    ``load`` is passed per call rather than held, so the cache keeps no
    reference back to the reader that owns it: a dropped reader frees
    its decoded values at once instead of waiting for the cycle
    collector.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable, load: Callable[[], object]) -> Tuple[object, bool]:
        """``(value, hit)`` for ``key``, calling ``load()`` on a miss."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            return value, True
        value = load()
        if self.capacity:
            self._entries[key] = value
            self._trim()
        return value, False

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting least recently used entries."""
        self.capacity = max(0, int(capacity))
        self._trim()

    def clear(self) -> None:
        """Drop every resident value (memory-pressure handling)."""
        self._entries.clear()

    def keys(self) -> List[Hashable]:
        """Resident keys, LRU order (oldest first)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class IndexReader:
    """An open index file: container, catalog, query planner, one cache.

    Opening loads the catalog into public attributes — ``catalog``
    (keyword → :class:`KeywordMeta`), ``topic_names`` (topic id → name),
    ``n_vertices``, ``epsilon``, ``K``, ``codec`` — as a database would
    its system catalog, then hands the parsed document to the subclass's
    :meth:`_load` for whatever else its format keeps resident.  If
    anything after the file is opened raises, the file is closed before
    the error propagates.  ``stats`` counts every read the reader issues.

    What a server uses of a reader, whichever index it holds:
    :attr:`cache`, :meth:`plan`, :meth:`lookup`, :meth:`warm` and
    :meth:`query`.
    """

    #: The catalog format this reader serves; set by each subclass.
    FORMAT: str
    #: Default capacity of :attr:`cache`, in keywords; set by each subclass.
    CACHE_KEYWORDS: int

    def __init__(
        self,
        path: str,
        *,
        stats: Optional[IOStats] = None,
        pool: Optional[BufferPool] = None,
        prefix_cache_keywords: Optional[int] = None,
    ) -> None:
        # The reader's one cache of decoded data, keyed by keyword name
        # (what :meth:`lookup` serves); 0 retains nothing between queries.
        self.cache = BlockCache(
            self.CACHE_KEYWORDS
            if prefix_cache_keywords is None
            else prefix_cache_keywords
        )
        self.stats = stats if stats is not None else IOStats()
        self._reader = SegmentReader(path, stats=self.stats, pool=pool)
        try:
            parsed = read_catalog(self._reader, self.FORMAT)
            self.catalog = parsed.keywords
            self.topic_names = parsed.topic_names
            self.n_vertices = parsed.n_vertices
            self.epsilon = parsed.epsilon
            self.K = parsed.K
            self.codec = parsed.codec
            self._load(parsed)
        except BaseException:
            self._reader.close()
            raise

    def _load(self, parsed: Catalog) -> None:
        """Load the format-specific resident state (record headers,
        partition tables); runs inside the constructor's close-on-error."""
        raise NotImplementedError

    @property
    def prefix_cache_keywords(self) -> int:
        """Capacity of :attr:`cache`, in keywords."""
        return self.cache.capacity

    def keywords(self) -> List[str]:
        """Indexed keyword names (sorted)."""
        return sorted(self.catalog)

    def plan(self, query: KBTIMQuery) -> Tuple[List[str], Dict[str, int], float]:
        """Validate one query and plan its prefixes (Eqn. 11), reading nothing.

        Returns ``(keywords, counts, phi_q)``: the resolved keyword
        names, ``θ^Q_w`` per keyword and ``φ_Q``.

        Raises
        ------
        QueryError
            If ``query.k`` exceeds the index's system parameter ``K``,
            or two keyword refs resolve to the same indexed keyword.
        IndexError_
            If a keyword is not in the index.
        """
        if query.k > self.K:
            raise QueryError(
                f"Q.k ({query.k}) exceeds the index's system parameter K ({self.K})"
            )
        keywords = resolve_unique(
            query.keywords, partial(resolve_keyword, self.topic_names)
        )
        _theta_q, counts, phi_q = plan_theta_q(keywords, self.catalog)
        return keywords, counts, phi_q

    def lookup(self, keyword: str, count: int) -> Tuple[object, bool]:
        """``(value, hit)``: one query keyword's decoded value, through
        :attr:`cache` — the RR block serving ``count`` sets, or the IRR
        pair of ``IP_w`` and the keyword's decoded partitions (a list
        that holds partition 0 and grows as queries load later ones);
        ``hit`` when the cache spared the decode.
        ``keyword`` must already be validated against the catalog."""
        raise NotImplementedError

    def warm(self, keyword: str) -> int:
        """Load every unit of one validated keyword through :attr:`cache`
        — the RR block, or the IRR partition 0 and every later partition
        — and return how many of them had to be decoded."""
        raise NotImplementedError

    def verify(self, keyword: str) -> int:
        """Deep-check one keyword for :func:`verify_index`: re-derive what
        the writer stored from the keyword's stored RR sets with the
        writer's own code, compare, and return the number of RR sets."""
        raise NotImplementedError

    def query(
        self,
        query: KBTIMQuery,
        lookup: Optional[Lookup] = None,
    ) -> SeedSelection:
        """Answer one query; every query keyword's value comes from
        ``lookup`` (default :meth:`lookup`) — a batch passes the values it
        already holds.  ``stats.cache_hits`` / ``cache_misses`` count the
        query's load units by the ``hit`` each load reported."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the underlying file."""
        self._reader.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_index(path: str, **reader_kwargs) -> IndexReader:
    """Open an index file with the reader its catalog's ``format`` names
    (``reader_kwargs``: the options both readers take, e.g. ``pool``)."""
    from repro.core.irr_index import IRRIndex
    from repro.core.rr_index import RRIndex

    with SegmentReader(path) as reader:
        fmt = read_catalog(reader).format
    return (RRIndex if fmt == RR_FORMAT else IRRIndex)(path, **reader_kwargs)


# ----------------------------------------------------------------------
# integrity check
# ----------------------------------------------------------------------
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
    """Verify an index file of either format end to end.

    Both modes read every segment in the file, checking its CRC, then
    check that every segment the catalog implies is there, then open
    the file with :func:`open_index` (the catalog's fields, RR's record
    headers).  ``deep`` then runs each keyword's ``verify``: it decodes
    the keyword's RR sets, re-derives everything else the writer stored
    from them with the writer's own code, and compares.

    Raises :class:`~repro.errors.CorruptIndexError` on the first
    inconsistency; returns a summary report on success.
    """
    with SegmentReader(path) as reader:
        names = reader.names()
        for name in names:
            reader.read_view(name)  # raises on a checksum mismatch
        catalog = read_catalog(reader)
        for name in _implied_segments(catalog):
            reader.info(name)  # raises naming a missing segment
    with open_index(path) as index:
        rr_sets_checked = (
            sum(index.verify(kw) for kw in index.keywords()) if deep else 0
        )
    return IndexCheckReport(
        path=path,
        format=catalog.format,
        keywords_checked=len(catalog.keywords),
        segments_checked=len(names),
        rr_sets_checked=rr_sets_checked,
    )


def _implied_segments(catalog: Catalog) -> List[str]:
    """The record segments the catalog says the file holds."""
    if catalog.format == RR_FORMAT:
        return [f"{kind}/{kw}" for kw in catalog.keywords for kind in ("rr", "inv")]
    return [
        f"irr/{kw}/{p}"
        for kw, fields in catalog.partitions.items()
        for p in range(fields["n_partitions"])
    ]


def check_ids(path: str, where: str, ids: np.ndarray, bound: int, key: str) -> None:
    """Raise :class:`CorruptIndexError` unless every id of ``ids`` (never
    negative once decoded) is below ``bound``."""
    if len(ids) and ids.max() >= bound:
        raise CorruptIndexError(
            f"{path}: {where} holds {key} {int(ids.max())}, outside [0, {bound})"
        )


def check_lists(
    path: str, where: str, stored: tuple, rebuilt: tuple, key: str = "vertex"
) -> None:
    """Raise :class:`CorruptIndexError` unless two CSR triples
    ``(keys, ptr, ids)`` of lists — what a record stores and what the
    writer's code derives from the RR sets — are equal; ``where`` names
    the record and ``key`` what its keys are."""
    keys, ptr, ids = stored
    rebuilt_keys, rebuilt_ptr, rebuilt_ids = rebuilt
    if len(keys) != len(rebuilt_keys):
        raise CorruptIndexError(f"{path}: {where} list count mismatch")
    wrong = np.flatnonzero(
        (keys != rebuilt_keys) | (np.diff(ptr) != np.diff(rebuilt_ptr))
    )
    if not len(wrong):  # every list as long as its rebuilt one: the ids line up
        differing = np.flatnonzero(ids != rebuilt_ids)
        wrong = np.searchsorted(ptr, differing, side="right") - 1
    if len(wrong):
        raise CorruptIndexError(
            f"{path}: {where} list of {key} {int(keys[wrong[0]])} "
            "disagrees with RR sets"
        )
