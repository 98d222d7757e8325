"""Incremental RR index (IRR): Algorithm 3 (build) and Algorithm 4 (query).

**Build** (:class:`IRRIndexBuilder`): derived from the same per-keyword
sample tables as the RR index.  Per keyword ``w`` (Figure 3):

* ``IL_w`` — the inverted lists of ``L_w`` re-sorted by *descending list
  length* (most influential users first) and split into partitions of
  ``delta`` users (``IL^1_w, IL^2_w, ...``);
* ``IR_w`` — matching RR-set partitions: ``IR^p_w`` holds the RR sets that
  intersect ``IL^p_w`` and were not claimed by an earlier partition;
* ``IP_w`` — each vertex's first occurrence (smallest RR-set id) in
  ``R_w``, used at query time to decide that a vertex has an exactly-zero
  partial score for a keyword (its first occurrence falls beyond the
  ``θ^Q_w`` active prefix).

**Query** (:meth:`IRRIndex.query`): NRA-style top-k aggregation
(Fagin et al.), loading partitions incrementally.  A candidate's upper
bound sums, per query keyword, either its exact active-uncovered count
(list loaded) or the keyword's unseen bound ``kb[w]``.  Seeds are
confirmed when the top candidate is COMPLETE and beats ``Σ_w kb[w]``.
The engine is array-native: per-keyword state lives in flat arrays
(:class:`_KeywordState`), partition ingest is pure slicing, and the
candidate scores sit in a dense bound table selected by masked
``argmax``.  Covering a confirmed seed's RR sets re-scores exactly the
affected users in one vectorised pass — the batch formulation of the
paper's *lazy evaluation strategy* (Section 5.2), which deferred scalar
re-scores until a candidate surfaced at the top of a priority queue;
both select the identical seed sequence (max current bound, smallest
vertex id on ties), which the regression tests pin down against a
verbatim port of the dict/heap engine.

Theorem 3 — the seed *scores* returned by Algorithm 4 equal Algorithm 2's —
is enforced by the integration tests on shared sample tables.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.catalog import (
    IRR_FORMAT,
    Catalog,
    IndexReader,
    encode_catalog,
    keyword_entries,
)
from repro.core.offline import KeywordTable
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.rr_index import BuildReport, RRIndexBuilder, build_report, invert_csr
from repro.core.theta import ThetaPolicy
from repro.errors import IndexError_
from repro.storage.compression import Codec
from repro.storage.iostats import IOStats
from repro.storage.pager import DEFAULT_PAGE_SIZE, BufferPool
from repro.storage.records import InvertedListsRecord
from repro.storage.segments import SegmentWriter
from repro.utils.rrsets import FlatRRSets
from repro.utils.segments import segmented_arange, take_rows

__all__ = ["IRRIndexBuilder", "IRRIndex", "DEFAULT_PARTITION_SIZE"]

#: Paper setting: "the partition size δ is set to 100 for all experiments".
DEFAULT_PARTITION_SIZE = 100

#: LRU capacity of the per-reader decoded-partition memo (see
#: ``IRRIndex._decode_cache``): at δ=100 this bounds resident decoded
#: state to a few hundred partitions regardless of index size.
_DECODE_CACHE_PARTITIONS = 512

#: LRU capacity of the per-reader IP_w memo.  IP maps are the largest
#: per-keyword decoded structure (one entry per vertex occurring under
#: the keyword), so they get the same bounded treatment.
_IP_CACHE_KEYWORDS = 64


class IRRIndexBuilder(RRIndexBuilder):
    """Algorithm 3: build the partitioned incremental index.

    Inherits the sampling machinery from :class:`RRIndexBuilder`; only the
    on-disk layout differs.  ``delta`` is the partition size δ.
    """

    def __init__(self, *args, delta: int = DEFAULT_PARTITION_SIZE, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if delta < 1:
            raise IndexError_(f"delta must be >= 1, got {delta}")
        self.delta = delta

    def build(
        self,
        path: str,
        *,
        keywords: Optional[Sequence] = None,
        tables: Optional[Dict[str, KeywordTable]] = None,
    ) -> BuildReport:
        """Sample (unless ``tables`` given) and persist the IRR index."""
        started = time.perf_counter()
        if tables is None:
            tables = self.sample(keywords)
        return write_irr_index(
            path,
            tables,
            n_vertices=self.model.graph.n,
            policy=self.policy,
            codec=self.codec,
            delta=self.delta,
            started=started,
        )


def partition_keyword(rr_sets: Sequence[np.ndarray], delta: int) -> Tuple[tuple, ...]:
    """Algorithm 3 lines 5-14 for one keyword, in flat CSR form.

    Returns ``(il, ir, ip)``, tuples of arrays:

    * ``il = (vertices, ptr, set_ids)`` — every vertex's inverted list
      (ascending RR-set ids) in descending length order (ties: smaller
      vertex first); partition ``p`` is lists ``[p·δ, (p+1)·δ)``;
    * ``ir = (set_ids, part_ptr)`` — RR-set ids grouped by the partition
      that claims them, ascending within each: partition ``p`` is
      ``set_ids[part_ptr[p]:part_ptr[p+1]]``;
    * ``ip = (vertices, firsts)`` — ascending vertices and the first RR
      set each occurs in.
    """
    flat = FlatRRSets.from_sets(rr_sets)
    # invert_csr is the argsort inversion shared with the RR builder:
    # ascending vertices, each with ascending set ids.
    vertices, ptr, set_ids = invert_csr(flat.sizes(), flat.vertices)
    order = np.lexsort((vertices, -np.diff(ptr)))
    il_ptr, il_ids = take_rows(ptr, set_ids, order)
    # A partition claims every not-yet-claimed set any of its lists
    # touches, i.e. a set goes to the earliest partition holding one of
    # its vertices.  Lists are in partition order, so writing the entries
    # back to front leaves each set its first (smallest) partition.
    n_partitions = -(-len(order) // delta)
    partition_of = np.repeat(np.arange(len(order)) // delta, np.diff(il_ptr))
    owner = np.full(len(flat), n_partitions, dtype=np.int64)
    owner[il_ids[::-1]] = partition_of[::-1]
    by_owner = np.argsort(owner, kind="stable")
    part_ptr = np.searchsorted(owner[by_owner], np.arange(n_partitions + 1))
    return (
        (vertices[order], il_ptr, il_ids),
        (by_owner[: part_ptr[-1]], part_ptr),
        # First occurrence = head of each (ascending) inverted list.
        (vertices, set_ids[ptr[:-1]]),
    )


def write_irr_index(
    path: str,
    tables: Dict[str, KeywordTable],
    *,
    n_vertices: int,
    policy: ThetaPolicy,
    codec: Codec,
    delta: int,
    started: Optional[float] = None,
) -> BuildReport:
    """Serialise sample tables in the IRR layout (Figure 3)."""
    if started is None:
        started = time.perf_counter()
    # Everything is partitioned and encoded before the file is created.
    entries = keyword_entries(tables)
    payload_segments: List[Tuple[str, bytes]] = []

    def add(segment: str, keys: np.ndarray, ptr: np.ndarray, ids: np.ndarray) -> None:
        record = InvertedListsRecord.encode(keys, ptr, ids, codec)
        payload_segments.append((segment, record))

    def add_partitions(kind: str, bounds, keys, ptr, ids) -> None:
        """One record per partition: rows ``bounds[p]:bounds[p + 1]``."""
        for p, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            add(f"{kind}/{p}", keys[lo:hi], ptr[lo : hi + 1] - ptr[lo], ids[ptr[lo] : ptr[hi]])

    for name in sorted(tables):
        rr_sets = FlatRRSets.from_sets(tables[name].rr_sets)
        (il_keys, il_ptr, il_ids), (ir_sets, part_ptr), (ip_keys, ip_firsts) = (
            partition_keyword(rr_sets, delta)
        )
        list_ptr = np.minimum(np.arange(len(part_ptr)) * delta, len(il_keys))
        entries[name].update(
            n_partitions=len(part_ptr) - 1,
            partition_first_lens=np.diff(il_ptr)[list_ptr[:-1]].tolist(),
            partition_set_counts=np.diff(part_ptr).tolist(),
        )
        add(f"ip/{name}", ip_keys, np.arange(len(ip_keys) + 1), ip_firsts)
        add_partitions(f"il/{name}", list_ptr, il_keys, il_ptr, il_ids)
        # The claimed RR sets themselves, gathered once in IR order.
        ir_ptr, ir_vertices = take_rows(rr_sets.ptr, rr_sets.vertices, ir_sets)
        add_partitions(f"ir/{name}", part_ptr, ir_sets, ir_ptr, ir_vertices)
    with SegmentWriter(path) as writer:
        writer.add(
            "meta",
            encode_catalog(
                IRR_FORMAT,
                n_vertices=n_vertices,
                epsilon=policy.epsilon,
                K=policy.K,
                codec=codec,
                delta=delta,
                keywords=entries,
            ),
        )
        for segment_name, payload in payload_segments:
            writer.add(segment_name, payload)
    return build_report(path, tables, started)


@dataclass
class _KeywordState:
    """Per-query, per-keyword NRA state — flat arrays, no per-vertex dicts.

    The NRA bookkeeping is array-native: ``exact`` holds every vertex's
    active-and-uncovered count (``-1`` = inverted list not loaded yet),
    and the loaded inverted lists / RR-set members live in the per-
    partition *blocks* their decode produced, addressed through flat
    locator arrays (``block of``, ``start``, ``end``).  Partition ingest
    is therefore pure slicing and fancy indexing; no ``il_keys`` loop.
    """

    active_count: int  # θ^Q_w: only RR-set ids below this are live
    n_partitions: int
    partition_first_lens: List[int]
    first_occurrence: np.ndarray  # IP_w: first set id per vertex, -1 = none
    n_vertices: int
    next_partition: int = 0
    covered_n: int = 0

    def __post_init__(self) -> None:
        n = self.n_vertices
        # exact[v]: active-and-uncovered count; -1 until v's list loads.
        self.exact = np.full(n, -1, dtype=np.int64)
        # Loaded inverted lists: clipped per-partition payloads, with a
        # per-vertex (block, start, end) locator.  Each vertex belongs to
        # exactly one IL partition, so a locator entry is written once.
        self.list_blocks: List[np.ndarray] = []
        self.list_block_of = np.full(n, -1, dtype=np.int64)
        self.list_start = np.zeros(n, dtype=np.int64)
        self.list_end = np.zeros(n, dtype=np.int64)
        # Loaded RR-set members: one flat payload grown per partition
        # load (loads are few), with per-set (start, end) locators so a
        # seed's coverage pass is a single segmented gather.  Only active
        # sets (id < θ^Q_w) are ever looked up, so the locators cover
        # just the active prefix; start == -1 means not loaded.
        self.members_flat = np.empty(0, dtype=np.int64)
        self.mem_start = np.full(self.active_count, -1, dtype=np.int64)
        self.mem_end = np.zeros(self.active_count, dtype=np.int64)
        self.covered = np.zeros(self.active_count, dtype=bool)

    @property
    def exhausted(self) -> bool:
        """Whether every partition of this keyword has been loaded."""
        return self.next_partition >= self.n_partitions

    @property
    def kb(self) -> int:
        """Upper bound on any unseen user's active count for this keyword."""
        if self.exhausted:
            return 0
        return min(
            self.partition_first_lens[self.next_partition], self.active_count
        )

    def loaded_list(self, vertex: int) -> Optional[np.ndarray]:
        """The vertex's clipped active RR-set ids, or ``None`` if unloaded."""
        block = self.list_block_of[vertex]
        if block < 0:
            return None
        return self.list_blocks[block][
            self.list_start[vertex] : self.list_end[vertex]
        ]


class _DecodeMemo:
    """Bounded LRU memo of decoded, immutable index records.

    The reader's one memoisation convention: the *read* behind a record
    is always issued and charged by the caller; only the CPU-side decode
    is remembered here.  ``capacity <= 0`` retains nothing.  One lock
    guards lookup, admit and evict, so concurrent queries on one reader
    never touch a key a racing eviction just dropped; the decode itself
    runs outside it (two racing misses both decode, the result is the
    same immutable value).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, decode: Callable[[], object]):
        """The memoised ``decode()`` of ``key`` (least recent evicted)."""
        if self.capacity <= 0:
            return decode()
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = decode()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)


class IRRIndex(IndexReader):
    """Query-time reader for the IRR index (Algorithm 4).

    ``decode_cache_partitions`` bounds the decoded-partition memo (and
    switches the ``IP_w`` memo with it): ``<= 0`` retains nothing, so
    every logical load re-decodes — the cold behaviour the experiments
    sweep.  Either way every logical load issues its read through the
    pager, so a query's I/O accounting does not depend on what the
    reader served before.
    """

    FORMAT = IRR_FORMAT

    def __init__(
        self,
        path: str,
        *,
        stats: Optional[IOStats] = None,
        pool: Optional[BufferPool] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        decode_cache_partitions: int = _DECODE_CACHE_PARTITIONS,
    ) -> None:
        self.decode_cache_partitions = int(decode_cache_partitions)
        # Decoded IP_w maps and decoded (IR, IL) partitions: immutable
        # index data, bounded so a long-lived reader never holds the
        # whole index decoded in memory.
        self._ip_cache = _DecodeMemo(
            _IP_CACHE_KEYWORDS if self.decode_cache_partitions > 0 else 0
        )
        self._decode_cache = _DecodeMemo(self.decode_cache_partitions)
        self._partition_info: Dict[str, Tuple[int, List[int]]] = {}
        super().__init__(path, stats=stats, pool=pool, page_size=page_size)

    def _load(self, parsed: Catalog) -> None:
        self.delta = parsed.delta
        for name, entry in parsed.entries.items():
            self._partition_info[name] = (
                int(entry["n_partitions"]),
                [int(x) for x in entry["partition_first_lens"]],
            )

    # ------------------------------------------------------------------
    def _load_ip(self, keyword: str) -> np.ndarray:
        """Load the first-occurrence map ``IP_w`` (one read).

        Batch-decoded: IP stores one single-id list per vertex, so the
        firsts are exactly the flat payload, scattered into a dense
        length-``n`` array (``-1`` = vertex never occurs under the
        keyword).
        """
        record = self._reader.read_view(f"ip/{keyword}")

        def decode() -> np.ndarray:
            keys, ptr, flat = InvertedListsRecord.decode_csr(record)
            result = np.full(self.n_vertices, -1, dtype=np.int64)
            result[keys] = flat[ptr[:-1]]
            return result

        return self._ip_cache.get(keyword, decode)

    def _load_partition(self, keyword: str, p: int) -> tuple:
        """Load partition ``p``'s ``(IR, IL)`` CSR arrays (two reads)."""
        ir_record = self._reader.read_view(f"ir/{keyword}/{p}")
        il_record = self._reader.read_view(f"il/{keyword}/{p}")
        return self._decode_cache.get(
            (keyword, p),
            lambda: InvertedListsRecord.decode_csr(ir_record)
            + InvertedListsRecord.decode_csr(il_record),
        )

    # ------------------------------------------------------------------
    def query(self, query: KBTIMQuery) -> SeedSelection:
        """Algorithm 4: incremental NRA top-k aggregation."""
        started = time.perf_counter()
        before = self.stats.snapshot()
        keywords, counts, phi_q = self.plan(query)

        states: Dict[str, _KeywordState] = {}
        for kw in keywords:
            n_partitions, first_lens = self._partition_info[kw]
            states[kw] = _KeywordState(
                active_count=counts[kw],
                n_partitions=n_partitions,
                partition_first_lens=first_lens,
                first_occurrence=self._load_ip(kw),
                n_vertices=self.n_vertices,
            )
        state_list = [states[kw] for kw in keywords]

        rr_sets_loaded = 0
        partitions_loaded = 0
        # Candidate state is a dense score table instead of a heap:
        # ``live_bound[v]`` is v's *current* NRA upper bound (-1 = not a
        # candidate: never enqueued, or already selected), and
        # ``incomplete[v]`` counts the query keywords whose partial score
        # for v is still the unseen bound kb.  Because the flat arrays
        # make every bound exact at all times, selection is one masked
        # ``argmax`` — the first-argmax rule ``greedy_max_coverage``
        # shares (max current bound, smallest vertex id on ties).
        live_bound = np.full(self.n_vertices, -1, dtype=np.int64)
        incomplete = np.zeros(self.n_vertices, dtype=np.int64)
        enqueued = np.zeros(self.n_vertices, dtype=bool)
        selected = np.zeros(self.n_vertices, dtype=bool)
        seeds: List[int] = []
        marginals: List[int] = []

        def refresh_bounds(vertices: np.ndarray, with_completeness: bool) -> None:
            """Recompute bounds (and optionally completeness) in one pass."""
            total = np.zeros(len(vertices), dtype=np.int64)
            if with_completeness:
                incomplete_count = np.zeros(len(vertices), dtype=np.int64)
            for state in state_list:
                exact = state.exact[vertices]
                unloaded = exact < 0
                first = state.first_occurrence[vertices]
                known_zero = (first < 0) | (first >= state.active_count)
                total += np.where(
                    unloaded, np.where(known_zero, 0, state.kb), exact
                )
                if with_completeness:
                    incomplete_count += unloaded & ~known_zero
            live_bound[vertices] = total
            if with_completeness:
                incomplete[vertices] = incomplete_count

        def load_next_partitions() -> bool:
            """Algorithm 4 lines 23-30: one more partition per keyword."""
            nonlocal rr_sets_loaded, partitions_loaded
            any_loaded = False
            for kw in keywords:
                state = states[kw]
                if state.exhausted:
                    continue
                ir_keys, ir_ptr, ir_flat, il_keys, il_ptr, il_flat = (
                    self._load_partition(kw, state.next_partition)
                )
                partitions_loaded += 1
                state.next_partition += 1
                # Member ingest is pure slicing: extend the flat payload,
                # scatter (start, end) locators for the *active* sets
                # (id < θ^Q_w — later ids are never looked up; their
                # bytes only show up in the I/O stats).  The active count
                # keeps the loaded-sets metric comparable with the RR
                # index's prefix count.
                active_sets = ir_keys < state.active_count
                act_keys = ir_keys[active_sets]
                offset = len(state.members_flat)
                state.members_flat = (
                    np.concatenate([state.members_flat, ir_flat])
                    if offset
                    else ir_flat
                )
                state.mem_start[act_keys] = ir_ptr[:-1][active_sets] + offset
                state.mem_end[act_keys] = ir_ptr[1:][active_sets] + offset
                rr_sets_loaded += int(np.count_nonzero(active_sets))
                # Clip every list to the active prefix in one mask pass
                # (per-vertex ids are ascending, so the mask is a prefix).
                active_mask = il_flat < state.active_count
                if len(il_flat):
                    segments = np.repeat(
                        np.arange(len(il_keys)), np.diff(il_ptr)
                    )
                    lengths = np.bincount(
                        segments[active_mask], minlength=len(il_keys)
                    )
                else:
                    lengths = np.zeros(len(il_keys), dtype=np.int64)
                clipped = il_flat[active_mask]
                # Exact counts seeded per vertex: clipped length minus any
                # sets already covered by previously confirmed seeds; from
                # here on they are maintained incrementally.
                if state.covered_n and len(clipped):
                    covered_per = np.bincount(
                        np.repeat(np.arange(len(il_keys)), lengths)[
                            state.covered[clipped]
                        ],
                        minlength=len(il_keys),
                    )
                    exact = lengths - covered_per
                else:
                    exact = lengths
                bounds = np.zeros(len(il_keys) + 1, dtype=np.int64)
                np.cumsum(lengths, out=bounds[1:])
                lblock = len(state.list_blocks)
                state.list_blocks.append(clipped)
                state.list_block_of[il_keys] = lblock
                state.list_start[il_keys] = bounds[:-1]
                state.list_end[il_keys] = bounds[1:]
                state.exact[il_keys] = exact
                enqueued[il_keys[~selected[il_keys]]] = True
                any_loaded = True
            if any_loaded:
                # One vectorised bound/completeness refresh over every
                # live candidate: newly loaded vertices enter the score
                # table and existing candidates absorb the shrunken kb
                # in the same pass (the per-vertex heap pushes the dict
                # engine needed are gone entirely).
                live = np.flatnonzero(enqueued & ~selected)
                if len(live):
                    refresh_bounds(live, with_completeness=True)
            return any_loaded

        def unseen_bound() -> int:
            return sum(state.kb for state in state_list)

        while len(seeds) < query.k:
            vertex = int(np.argmax(live_bound))
            current = int(live_bound[vertex])
            if current < 0:
                # No live candidate (all -1): load more, or degenerate to
                # zero-marginal filler picks once everything is loaded.
                if load_next_partitions():
                    continue
                filler = 0
                while len(seeds) < query.k and filler < self.n_vertices:
                    if not selected[filler]:
                        seeds.append(filler)
                        marginals.append(0)
                        selected[filler] = True
                    filler += 1
                break

            if not incomplete[vertex] and current >= unseen_bound():
                seeds.append(vertex)
                marginals.append(current)
                selected[vertex] = True
                live_bound[vertex] = -1
                # Mark this seed's active RR sets covered and update the
                # affected candidates' exact counts and bounds (lines
                # 17-22) — one segmented member gather per block instead
                # of a per-set Python loop.
                for state in state_list:
                    ids = state.loaded_list(vertex)
                    if ids is None or not len(ids):
                        continue
                    fresh = ids[~state.covered[ids]]
                    if not len(fresh):
                        continue
                    state.covered[fresh] = True
                    state.covered_n += len(fresh)
                    starts = state.mem_start[fresh]
                    have = starts >= 0
                    if not have.all():
                        fresh = fresh[have]
                        starts = starts[have]
                    if not len(fresh):
                        continue
                    lens = state.mem_end[fresh] - starts
                    members = state.members_flat.take(
                        segmented_arange(starts, lens)
                    )
                    # Every member of a newly covered set loses one
                    # active-uncovered unit — and, because a loaded
                    # member's bound contribution for this keyword *is*
                    # its exact count, the same decrement applies
                    # verbatim to the live bound table (unloaded members
                    # keep their kb contribution; completeness never
                    # changes under coverage).  Members already selected
                    # drift below -1, which the masked argmax ignores.
                    loaded = members[state.exact[members] >= 0]
                    np.subtract.at(state.exact, loaded, 1)
                    np.subtract.at(live_bound, loaded, 1)
            else:
                if not load_next_partitions():
                    raise IndexError_(
                        "IRR query stalled: no partitions left but the top "
                        "candidate is incomplete — index is inconsistent"
                    )

        stats = QueryStats(
            elapsed_seconds=time.perf_counter() - started,
            rr_sets_considered=sum(counts.values()),
            rr_sets_loaded=rr_sets_loaded,
            partitions_loaded=partitions_loaded,
            io=self.stats.delta(before),
        )
        return SeedSelection(
            seeds=tuple(seeds),
            marginal_coverages=tuple(marginals),
            theta=sum(counts.values()),
            phi_q=phi_q,
            stats=stats,
        )
