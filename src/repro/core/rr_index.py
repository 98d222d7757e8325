"""Disk-based RR index: Algorithm 1 (build) and Algorithm 2 (query).

**Build** (:class:`RRIndexBuilder`): for each keyword ``w``, persist the
θ_w discriminatively-sampled RR sets ``R_w`` plus their inverted mapping
``L_w`` (vertex → RR-set ids), as in Figure 2 of the paper.  Layout inside
the segment container:

* ``meta`` — JSON catalog: per-keyword θ_w, ``Σ tf``, ``idf``, ``φ_w``;
* ``rr/<keyword>`` — :class:`~repro.storage.records.RRSetsRecord` with a
  group offset table enabling bounded prefix reads;
* ``inv/<keyword>`` — :class:`~repro.storage.records.InvertedListsRecord`
  keyed by vertex, ascending.

**Query** (:meth:`RRIndex.query`): compute ``θ^Q = min_w θ_w / p_w``
(Eqn. 11), load the first ``θ^Q · p_w`` RR sets of each query keyword
(a bounded *prefix* read thanks to the offset table) together with the
full inverted lists, and run greedy maximum coverage for ``Q.k`` seeds —
Algorithm 2 verbatim (a reader that retains decoded blocks loads a
keyword's whole block once and slices every later prefix from it).  The
index never touches the profile store at query time: everything the
planner needs lives in the catalog.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.catalog import (
    RR_FORMAT,
    Catalog,
    IndexReader,
    KeywordMeta,
    Lookup,
    build_keyword_meta,
    encode_catalog,
    keyword_entries,
    plan_theta_q,
)
from repro.core.coverage import greedy_max_coverage, merge_coverage_csr
from repro.core.offline import KeywordTable, sample_keyword_tables
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.theta import ThetaPolicy
from repro.errors import CorruptIndexError, IndexError_
from repro.profiles.store import ProfileStore
from repro.propagation.base import PropagationModel
from repro.storage.compression import Codec, StreamDecoder, StreamEncoder
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.storage.segments import SegmentWriter
from repro.utils.rng import RngLike
from repro.utils.rrsets import FlatRRSets, group_by_vertex

# KeywordMeta, build_keyword_meta and plan_theta_q live in core/catalog.py;
# they stay importable from here (the benchmark and the tests do).
__all__ = [
    "KeywordMeta",
    "build_keyword_meta",
    "plan_theta_q",
    "BuildReport",
    "RRIndexBuilder",
    "RRIndex",
]


@dataclass(frozen=True)
class BuildReport:
    """What Algorithm 1 produced — the raw material of Tables 3-5."""

    path: str
    seconds: float
    file_bytes: int
    theta_total: int
    mean_rr_set_size: float
    keywords: Tuple[str, ...]


class RRIndexBuilder:
    """Algorithm 1: offline discriminative sampling into an on-disk index."""

    def __init__(
        self,
        model: PropagationModel,
        profiles: ProfileStore,
        *,
        policy: Optional[ThetaPolicy] = None,
        codec: Codec = Codec.PFOR,
        use_theta_hat: bool = False,
        workers: int = 1,
        rng: RngLike = None,
    ) -> None:
        self.model = model
        self.profiles = profiles
        self.policy = policy if policy is not None else ThetaPolicy()
        self.codec = codec
        self.use_theta_hat = use_theta_hat
        self.workers = workers
        self.rng = rng

    def sample(self, keywords: Optional[Sequence] = None) -> Dict[str, KeywordTable]:
        """Run the sampling pass only (reusable across index variants).

        Honours ``workers`` (the paper builds with 8 threads); any worker
        count yields bit-identical tables thanks to per-keyword seeding.
        """
        return sample_keyword_tables(
            self.model,
            self.profiles,
            keywords=keywords,
            policy=self.policy,
            use_theta_hat=self.use_theta_hat,
            workers=self.workers,
            rng=self.rng,
        )

    def build(
        self,
        path: str,
        *,
        keywords: Optional[Sequence] = None,
        tables: Optional[Dict[str, KeywordTable]] = None,
    ) -> BuildReport:
        """Sample (unless ``tables`` given) and persist the RR index."""
        started = time.perf_counter()
        if tables is None:
            tables = self.sample(keywords)
        return write_rr_index(
            path,
            tables,
            n_vertices=self.model.graph.n,
            policy=self.policy,
            codec=self.codec,
            started=started,
        )


def write_rr_index(
    path: str,
    tables: Dict[str, KeywordTable],
    *,
    n_vertices: int,
    policy: ThetaPolicy,
    codec: Codec,
    started: Optional[float] = None,
) -> BuildReport:
    """Serialise sample tables in the RR layout (Figure 2)."""
    if started is None:
        started = time.perf_counter()
    # One encoding session for the whole file, finished before it opens.
    encoder = StreamEncoder()
    frames = []
    for name in sorted(tables):
        rr_sets = tables[name].rr_sets
        rr = RRSetsRecord.queue_encode(encoder, rr_sets.ptr, rr_sets.vertices, codec)
        inv = InvertedListsRecord.queue_encode(encoder, *invert_csr(rr_sets), codec)
        frames += [(f"rr/{name}", rr), (f"inv/{name}", inv)]
    streams = encoder.finish()
    with SegmentWriter(path) as writer:
        writer.add(
            "meta",
            encode_catalog(
                RR_FORMAT,
                n_vertices=n_vertices,
                epsilon=policy.epsilon,
                K=policy.K,
                codec=codec,
                keywords=keyword_entries(tables),
            ),
        )
        for segment, frame in frames:
            writer.add(segment, frame(streams))
    return build_report(path, tables, started)


def build_report(
    path: str, tables: Dict[str, KeywordTable], started: float
) -> BuildReport:
    """The :class:`BuildReport` of a finished index file (either layout)."""
    total_sets = sum(len(table.rr_sets) for table in tables.values())
    total_size = sum(table.rr_sets.total_size for table in tables.values())
    return BuildReport(
        path=path,
        seconds=time.perf_counter() - started,
        file_bytes=os.path.getsize(path),
        theta_total=total_sets,
        mean_rr_set_size=(total_size / total_sets) if total_sets else 0.0,
        keywords=tuple(sorted(tables)),
    )


def invert_csr(rr_sets: FlatRRSets) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert RR sets into the writers' vertex-major inverted lists.

    Returns ``(keys, ptr, set_ids)``: the ascending distinct vertices
    and, for ``keys[i]``, its ascending set ids ``set_ids[ptr[i]:ptr[i+1]]``
    — :func:`~repro.utils.rrsets.group_by_vertex` with the vertices no
    set holds left out.
    """
    vertices = rr_sets.vertices
    n_keys = int(vertices.max()) + 1 if vertices.size else 0
    vtx_ptr, set_ids = group_by_vertex(n_keys, vertices, rr_sets.set_ids())
    keys = np.flatnonzero(np.diff(vtx_ptr))
    return keys, np.append(vtx_ptr[keys], len(vertices)), set_ids


class KeywordCoverageCSR:
    """Flat-CSR view of one decoded keyword block (RR sets + ``L_w``).

    ``set_ptr``/``set_vertices`` hold the RR sets back to back;
    ``inv_vertices``/``inv_sets`` hold the inverted lists as aligned
    ``(vertex, set id)`` pairs in vertex-major order.  Built once per
    decode; clipping to a query's active prefix is then pure array
    slicing/masking.
    """

    __slots__ = ("set_ptr", "set_vertices", "inv_vertices", "inv_sets")

    def __init__(
        self,
        set_ptr: np.ndarray,
        set_vertices: np.ndarray,
        inv_vertices: np.ndarray,
        inv_sets: np.ndarray,
    ) -> None:
        self.set_ptr = set_ptr
        self.set_vertices = set_vertices
        self.inv_vertices = inv_vertices
        self.inv_sets = inv_sets

    @classmethod
    def from_csr_arrays(
        cls,
        set_ptr: np.ndarray,
        set_vertices: np.ndarray,
        inv_keys: np.ndarray,
        inv_ptr: np.ndarray,
        inv_flat: np.ndarray,
    ) -> "KeywordCoverageCSR":
        """Wrap the batch-decoded CSR arrays (zero per-list Python)."""
        return cls(
            set_ptr,
            set_vertices,
            inv_keys.repeat(inv_ptr[1:] - inv_ptr[:-1]),
            inv_flat,
        )

    @property
    def n_sets(self) -> int:
        return len(self.set_ptr) - 1

    def clip_prefix(self, count: int) -> "KeywordCoverageCSR":
        """A view of this block restricted to its first ``count`` sets.

        The CSR layout makes prefix clipping a pure slice of the set-side
        arrays — no re-decode.  The inverted pairs are count-independent
        (a block always carries the full ``L_w``; :meth:`active_part`
        masks them per query), so they are shared as-is.  The returned
        block shares memory with this one; both are immutable by
        convention.
        """
        if count >= self.n_sets:
            return self
        set_ptr = self.set_ptr[: count + 1]
        return KeywordCoverageCSR(
            set_ptr,
            self.set_vertices[: int(set_ptr[-1])],
            self.inv_vertices,
            self.inv_sets,
        )

    def active_part(
        self, count: int, base: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Clip to the first ``count`` sets and offset ids by ``base``.

        Returns a ``(set_ptr, set_vertices, inv_vertices, inv_sets)``
        part for :func:`~repro.core.coverage.merge_coverage_csr` — the
        array-level replacement of the per-vertex prefix-clip loop.
        """
        set_ptr = self.set_ptr[: count + 1]
        set_vertices = self.set_vertices[: int(set_ptr[-1])]
        active = self.inv_sets < count
        return (
            set_ptr,
            set_vertices,
            self.inv_vertices[active],
            self.inv_sets[active] + base,
        )


class RRIndex(IndexReader):
    """Query-time reader for the RR index (Algorithm 2).

    Opening the index loads the catalog (meta JSON and per-keyword record
    headers) into memory, as a database would its system catalog; query
    processing then issues two bounded reads per query keyword it loads —
    an RR-set prefix and the full inverted-list region.

    Decoded keyword blocks are kept in :attr:`cache`
    (``prefix_cache_keywords`` keywords, default :attr:`CACHE_KEYWORDS`;
    a :class:`~repro.core.server.KBTIMServer` over this reader re-sizes
    and serves from the same object).  A retaining cache loads a
    keyword's **whole** block on first touch and slices every later
    ``θ^Q·p_w`` prefix from it; ``prefix_cache_keywords=0`` retains
    nothing and reads exactly the ``θ^Q·p_w`` prefix per query —
    Algorithm 2's I/O, which the paper's figures time.
    """

    FORMAT = RR_FORMAT
    CACHE_KEYWORDS = 32

    def _load(self, parsed: Catalog) -> None:
        # Record headers + group offset tables, loaded once at open:
        # keyword -> (group_size, payload_len, payload_start, offsets).
        self._headers: Dict[str, Tuple[int, int, int, np.ndarray]] = {}
        for name in self.catalog:
            segment = f"rr/{name}"
            prefix = self._reader.read_range(segment, 0, RRSetsRecord.HEADER_SIZE)
            n_sets, group_size, payload_len, payload_start = RRSetsRecord.read_header(
                prefix
            )
            table_start, table_len = RRSetsRecord.offset_table_range(prefix)
            offsets = RRSetsRecord.decode_offsets(
                self._reader.read_range(segment, table_start, table_len)
            )
            # Ranged reads skip the CRC: hold the header to the catalog and
            # the table to the payload before a query trusts either.
            if n_sets != parsed.keywords[name].n_sets:
                raise CorruptIndexError(
                    f"{self._reader.path}: {segment} header says {n_sets} sets, "
                    f"catalog says {parsed.keywords[name].n_sets}"
                )
            if len(offsets) and offsets[-1] >= payload_len:
                raise CorruptIndexError(
                    f"{self._reader.path}: {segment} offset table points past "
                    f"its {payload_len}-byte payload"
                )
            self._headers[name] = (group_size, payload_len, payload_start, offsets)

    # ------------------------------------------------------------------
    def lookup(self, keyword: str, count: int) -> Tuple[KeywordCoverageCSR, bool]:
        """``(block, hit)`` for one validated keyword: a block exposing at
        least ``count`` RR sets plus the keyword's full inverted pairs.

        A retaining :attr:`cache` holds the keyword's whole block (a miss
        decodes all ``n_sets``); a capacity-0 one reads only the
        ``count`` prefix.  Either way a miss is two bounded reads.
        """
        if not self.cache.capacity:
            return self.decode_block(keyword, count), False
        n_sets = self.catalog[keyword].n_sets
        return self.cache.get(keyword, partial(self.decode_block, keyword, n_sets))

    def warm(self, keyword: str) -> int:
        """Load one validated keyword's whole block (:meth:`lookup`);
        1 if it was decoded, 0 if :attr:`cache` held it."""
        return int(not self.lookup(keyword, self.catalog[keyword].n_sets)[1])

    def load_keyword_csr(self, keyword: str, count: int) -> KeywordCoverageCSR:
        """Load one keyword's query block as flat CSR (:meth:`lookup`).

        Parameters
        ----------
        keyword:
            An indexed keyword *name* (resolve ids via the catalog
            first).
        count:
            Number of leading RR sets to make available (``θ^Q·p_w``).

        Returns
        -------
        A :class:`KeywordCoverageCSR` exposing exactly ``count`` RR sets
        plus the keyword's full inverted pairs.  Treat it as immutable:
        its arrays may be shared with the cache and other callers.

        Raises
        ------
        IndexError_
            If ``keyword`` is not in the index or ``count`` exceeds its
            stored ``n_sets``.
        """
        meta = self.catalog.get(keyword)
        if meta is None:
            raise IndexError_(f"keyword {keyword!r} is not in the index")
        if count > meta.n_sets:
            raise IndexError_(
                f"requested {count} RR sets but {keyword!r} stores {meta.n_sets}"
            )
        return self.lookup(keyword, count)[0].clip_prefix(count)

    def decode_block(self, keyword: str, count: int) -> KeywordCoverageCSR:
        """Read and decode ``count`` leading RR sets of a block plus its
        full ``L_w``, past every cache: two bounded reads, one decoding
        session.  ``keyword`` and ``count`` must already be validated
        against the catalog."""
        group_size, payload_len, payload_start, offsets = self._headers[keyword]
        end = RRSetsRecord.prefix_payload_end(offsets, payload_len, group_size, count)
        payload = self._reader.read_range_view(f"rr/{keyword}", payload_start, end)
        # One decoding session per miss: both records' columns unpack in
        # one pass, each record bounded by its own end.
        decoder = StreamDecoder()
        rr_sets = RRSetsRecord.queue_prefix(decoder, payload, count)
        inverted = InvertedListsRecord.queue(
            decoder, self._reader.read_view(f"inv/{keyword}")
        )
        streams = decoder.finish()
        return KeywordCoverageCSR.from_csr_arrays(*rr_sets(streams), *inverted(streams))

    # ------------------------------------------------------------------
    def query(
        self,
        query: KBTIMQuery,
        lookup: Optional[Lookup] = None,
    ) -> SeedSelection:
        """Algorithm 2: plan θ^Q, load prefixes, greedy maximum coverage.

        Merges the per-keyword prefixes into one coverage instance with
        global set ids and runs :func:`~repro.core.coverage.greedy_max_coverage`
        for ``k`` seeds: one dense ``argmax`` over the live counts per pick
        plus a decrement of the newly covered sets' members, i.e.
        O(n_vertices + touched incidences) per pick.  The stored ``L_w``
        lists are offset and clipped to the active prefix (Example 5
        loads all of L_music/L_book but only rr1-rr9 / rr1-rr4 of the set
        regions); each keyword becomes one flat-CSR part, so the clip and
        merge are array slices, not per-vertex loops.  ``lookup``
        (default :meth:`lookup`) supplies each keyword's block, one load
        unit per keyword.
        """
        started = time.perf_counter()
        before = self.stats.snapshot()
        keywords, counts, phi_q = self.plan(query)
        lookup = lookup or self.lookup
        parts = []
        base = hits = 0
        for kw in keywords:
            count = counts[kw]
            block, hit = lookup(kw, count)
            parts.append(block.active_part(count, base))
            base += count
            hits += hit
        instance = merge_coverage_csr(self.n_vertices, parts)
        seeds, marginals = greedy_max_coverage(instance, query.k)
        theta_used = instance.n_sets
        return SeedSelection(
            seeds=tuple(seeds),
            marginal_coverages=tuple(marginals),
            theta=theta_used,
            phi_q=phi_q,
            stats=QueryStats(
                elapsed_seconds=time.perf_counter() - started,
                rr_sets_considered=theta_used,
                rr_sets_loaded=theta_used,
                cache_hits=hits,
                cache_misses=len(keywords) - hits,
                io=self.stats.delta(before),
            ),
        )
