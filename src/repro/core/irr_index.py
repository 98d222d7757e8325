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
(Fagin et al.), loading one more partition per keyword per round.  A
candidate's upper bound sums, per query keyword, either its exact
active-uncovered count (list loaded) or the keyword's unseen bound
``kb[w]`` (list not loaded and ``IP_w`` says it may score).  A seed is
confirmed when the top candidate is complete and beats ``Σ_w kb[w]``.

The engine keeps **one** state for all query keywords
(:class:`_NRAState`): keyword ``j``'s active set ``s`` is global set id
``offset[j] + s`` and a set's member ``v`` is stored as ``j·n + v``, so
``covered``, the set and list locators and the flat payloads are single
arrays, the per-keyword flags are ``(m, n)`` arrays, and

    ``live_bound = where(enqueued & ~selected, score + kb @ pending, -1)``

is one dense expression per load round.  It runs as module-level stages
over that record — :func:`_open_state` (read every ``IP_w``),
:func:`_ingest_partition` (slice one decoded partition in),
:func:`_refresh_bounds` (the expression above, once per round),
:func:`_pick_or_load` (masked ``argmax``: confirm, or load a round) and
:func:`_cover` (one pass over a seed's lists under *all* keywords:
gather, ``covered`` filter, one segmented member gather, one
``subtract.at`` each on ``score`` and ``live_bound``).  Covering
re-scores exactly the affected users at once — the batch formulation of
the paper's *lazy evaluation strategy* (Section 5.2), which deferred
scalar re-scores until a candidate surfaced at the top of a priority
queue; both select the identical seed sequence (max current bound,
smallest vertex id on ties) and load the identical partitions, which the
regression tests pin against a verbatim port of the dict/heap engine
(``tests/test_csr_fast_paths.py::reference_irr_nra``).  State table and
bound formula: ``docs/ARCHITECTURE.md``, "IRR query engine".

Theorem 3 — the seed *scores* returned by Algorithm 4 equal Algorithm 2's —
is enforced by the integration tests on shared sample tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.catalog import (
    IRR_FORMAT,
    BlockCache,
    Catalog,
    IndexReader,
    Lookup,
    encode_catalog,
    keyword_entries,
)
from repro.core.offline import KeywordTable
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.rr_index import BuildReport, RRIndexBuilder, build_report, invert_csr
from repro.core.theta import ThetaPolicy
from repro.errors import IndexError_
from repro.storage.compression import Codec, StreamDecoder, StreamEncoder
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool
from repro.storage.records import Frame, InvertedListsRecord
from repro.storage.segments import SegmentWriter
from repro.utils.rrsets import FlatRRSets
from repro.utils.segments import segmented_arange, take_rows

__all__ = ["IRRIndexBuilder", "IRRIndex", "DEFAULT_PARTITION_SIZE"]

#: Paper setting: "the partition size δ is set to 100 for all experiments".
DEFAULT_PARTITION_SIZE = 100

#: Capacity of the per-reader decoded-partition cache (see
#: ``IRRIndex._partitions``): at δ=100 this bounds resident decoded
#: state to a few hundred partitions regardless of index size.
_DECODE_CACHE_PARTITIONS = 512

#: Capacity of the per-reader ``IP_w`` cache (``IRRIndex.cache``).  IP
#: maps are the largest per-keyword decoded structure (one entry per
#: vertex occurring under the keyword), so they get the same bounded
#: treatment.
_IP_CACHE_KEYWORDS = 64

#: ``IP_w`` entry of a vertex that never occurs under ``w``: above any θ.
_NEVER = np.iinfo(np.int64).max


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


def partition_keyword(rr_sets: FlatRRSets, delta: int) -> Tuple[tuple, ...]:
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
    # invert_csr is the inversion shared with the RR builder: ascending
    # vertices, each with ascending set ids.
    vertices, ptr, set_ids = invert_csr(rr_sets)
    order = np.lexsort((vertices, -np.diff(ptr)))
    il_ptr, il_ids = take_rows(ptr, set_ids, order)
    # A partition claims every not-yet-claimed set any of its lists
    # touches, i.e. a set goes to the earliest partition holding one of
    # its vertices.  Lists are in partition order, so writing the entries
    # back to front leaves each set its first (smallest) partition.
    n_partitions = -(-len(order) // delta)
    partition_of = np.repeat(np.arange(len(order)) // delta, np.diff(il_ptr))
    owner = np.full(len(rr_sets), n_partitions, dtype=np.int64)
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
    # Everything is partitioned and encoded, in one encoding session,
    # before the file is created.
    entries = keyword_entries(tables)
    encoder = StreamEncoder()
    frames: List[Tuple[str, Frame]] = []

    def add_partitions(kind: str, bounds, keys, ptr, ids) -> None:
        """One record per partition: rows ``bounds[p]:bounds[p + 1]``."""
        records = InvertedListsRecord.queue_encode_partitions(
            encoder, keys, ptr, ids, bounds, codec
        )
        frames.extend((f"{kind}/{p}", frame) for p, frame in enumerate(records))

    for name in sorted(tables):
        rr_sets = tables[name].rr_sets
        (il_keys, il_ptr, il_ids), (ir_sets, part_ptr), (ip_keys, ip_firsts) = (
            partition_keyword(rr_sets, delta)
        )
        list_ptr = np.minimum(np.arange(len(part_ptr)) * delta, len(il_keys))
        entries[name].update(
            n_partitions=len(part_ptr) - 1,
            partition_first_lens=np.diff(il_ptr)[list_ptr[:-1]].tolist(),
            partition_set_counts=np.diff(part_ptr).tolist(),
        )
        ip_ptr = np.arange(len(ip_keys) + 1)
        ip = InvertedListsRecord.queue_encode(encoder, ip_keys, ip_ptr, ip_firsts, codec)
        frames.append((f"ip/{name}", ip))
        add_partitions(f"il/{name}", list_ptr, il_keys, il_ptr, il_ids)
        # The claimed RR sets themselves, gathered once in IR order.
        ir_ptr, ir_vertices = take_rows(rr_sets.ptr, rr_sets.vertices, ir_sets)
        add_partitions(f"ir/{name}", part_ptr, ir_sets, ir_ptr, ir_vertices)
    streams = encoder.finish()
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
        for segment, frame in frames:
            writer.add(segment, frame(streams))
    return build_report(path, tables, started)


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays`` made read-only: a decode is shared by every query (and
    thread) the cache serves, so an in-place op must raise, not corrupt."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _decode_partition(ir_record, il_record) -> tuple:
    """One decoding session for a partition's two records, read-only."""
    decoder = StreamDecoder()
    ir = InvertedListsRecord.queue(decoder, ir_record)
    il = InvertedListsRecord.queue(decoder, il_record)
    streams = decoder.finish()
    return _frozen(*ir(streams), *il(streams))


@dataclass
class _NRAState:
    """One query's NRA state: every query keyword a column of one record.

    Keyword ``j``'s active RR set ``s`` (``s < θ^Q_j``) is global set id
    ``offset[j] + s`` — the numbering ``merge_coverage_csr`` gives the RR
    path — and a set's member ``v`` is stored as ``j·n + v``, so one
    ``take`` on ``pending.ravel()`` answers "is that member's list for
    that keyword loaded".  Stage functions below are the only writers;
    ARCHITECTURE.md "IRR query engine" has the table of who writes what.
    """

    keywords: List[str]
    k: int  # seeds asked for
    n: int  # vertices
    theta: List[int]  # θ^Q_j: only keyword j's set ids below this are live
    offset: List[int]  # first global set id of keyword j
    n_partitions: Sequence[int]
    first_lens: Sequence[np.ndarray]  # longest list of each partition of keyword j
    next_partition: List[int]
    kb: np.ndarray  # (m,) bound on an unseen user's count under keyword j
    unseen: int  # Σ kb as of the last load round
    # (m, n): v may still score under keyword j (IP_j[v] < θ^Q_j) and its
    # list is not loaded — v's bound carries kb[j] instead of a count.
    pending: np.ndarray
    incomplete: np.ndarray  # (n,) any pending keyword, as of the last round
    # Loaded inverted lists, clipped to the active prefix, as global set
    # ids: v's list under keyword j is lists_flat[start : start + len].
    list_start: np.ndarray  # (m, n)
    list_len: np.ndarray  # (m, n), 0 until loaded
    lists_flat: np.ndarray
    # Loaded RR sets by global id: members_flat[start : start + len].
    mem_start: np.ndarray  # (Σθ,)
    mem_len: np.ndarray  # (Σθ,), 0 until loaded
    members_flat: np.ndarray
    covered: np.ndarray  # (Σθ,) set holds a confirmed seed
    score: np.ndarray  # (n,) Σ over loaded lists of active uncovered sets
    live_bound: np.ndarray  # (n,) NRA upper bound; < 0 = not a candidate
    enqueued: np.ndarray  # (n,) some list of v has been loaded
    selected: np.ndarray  # (n,)
    seeds: List[int]
    marginals: List[int]
    rr_sets_loaded: int = 0
    partitions_loaded: int = 0


def _open_state(
    index: "IRRIndex",
    keywords: List[str],
    counts: Dict[str, int],
    k: int,
    lookup: Lookup,
) -> _NRAState:
    """Stage 1: look up every ``IP_w`` and lay out the merged id space."""
    n = index.n_vertices
    theta = [counts[kw] for kw in keywords]
    offset = [0, *accumulate(theta)]
    n_partitions, first_lens = zip(*(index._partition_info[kw] for kw in keywords))
    pending = np.empty((len(keywords), n), dtype=bool)
    for j, kw in enumerate(keywords):
        np.less(lookup(kw, theta[j])[0], theta[j], out=pending[j])
    state = _NRAState(
        keywords=keywords,
        k=k,
        n=n,
        theta=theta,
        offset=offset,
        n_partitions=n_partitions,
        first_lens=first_lens,
        next_partition=[0] * len(keywords),
        kb=np.zeros(len(keywords), dtype=np.int64),
        unseen=0,
        pending=pending,
        incomplete=np.zeros(n, dtype=bool),
        list_start=np.zeros((len(keywords), n), dtype=np.int64),
        list_len=np.zeros((len(keywords), n), dtype=np.int64),
        lists_flat=np.empty(0, dtype=np.int64),
        mem_start=np.zeros(offset[-1], dtype=np.int64),
        mem_len=np.zeros(offset[-1], dtype=np.int64),
        members_flat=np.empty(0, dtype=np.int64),
        covered=np.zeros(offset[-1], dtype=bool),
        score=np.zeros(n, dtype=np.int64),
        live_bound=np.full(n, -1, dtype=np.int64),
        enqueued=np.zeros(n, dtype=bool),
        selected=np.zeros(n, dtype=bool),
        seeds=[],
        marginals=[],
    )
    for j in range(len(keywords)):
        _set_unseen_bound(state, j)
    return state


def _set_unseen_bound(state: _NRAState, j: int) -> None:
    """``kb[j]``: the next partition's longest list, clipped; 0 once exhausted."""
    p = state.next_partition[j]
    state.kb[j] = (
        min(state.first_lens[j][p], state.theta[j]) if p < state.n_partitions[j] else 0
    )


def _ingest_partition(state: _NRAState, j: int, decoded: tuple) -> None:
    """Stage 2: fold keyword ``j``'s next ``(IR, IL)`` partition into the state.

    ``decoded`` is shared, read-only cached data: everything stored is a
    fresh array (mask, sum or concatenate), never a view of it.
    """
    ir_keys, ir_ptr, ir_flat, il_keys, il_ptr, il_flat = decoded
    theta, offset = state.theta[j], state.offset[j]
    # RR sets: locators for the active ones only (id < θ^Q_j — later ids
    # are never looked up; their bytes only show up in the I/O stats).
    active = ir_keys < theta
    sets = ir_keys[active]
    sets += offset
    state.mem_start[sets] = ir_ptr[:-1][active] + len(state.members_flat)
    state.mem_len[sets] = (ir_ptr[1:] - ir_ptr[:-1])[active]
    state.members_flat = np.concatenate([state.members_flat, ir_flat + j * state.n])
    state.rr_sets_loaded += len(sets)
    # Inverted lists: clip each to the active ids; the number of kept
    # positions before each list boundary is the clipped CSR pointer.
    kept = np.flatnonzero(il_flat < theta)
    bounds = kept.searchsorted(il_ptr)
    exact = lengths = bounds[1:] - bounds[:-1]
    clipped = il_flat.take(kept)
    clipped += offset
    if state.seeds and len(clipped):
        # Sets a confirmed seed already covers do not count (the seed
        # was picked before this partition was loaded).
        gone = np.zeros(len(clipped) + 1, dtype=np.int64)
        state.covered.take(clipped).cumsum(out=gone[1:])
        gone = gone.take(bounds)
        exact = lengths - (gone[1:] - gone[:-1])
    # Each vertex is in exactly one IL partition per keyword, so il_keys
    # is duplicate-free and every locator entry is written once.
    state.list_start[j][il_keys] = bounds[:-1] + len(state.lists_flat)
    state.list_len[j][il_keys] = lengths
    state.lists_flat = np.concatenate([state.lists_flat, clipped])
    state.score[il_keys] += exact
    state.pending[j][il_keys] = False
    state.enqueued[il_keys] = True
    state.next_partition[j] += 1
    state.partitions_loaded += 1
    _set_unseen_bound(state, j)


def _refresh_bounds(state: _NRAState) -> None:
    """Stage 3, once per load round: every candidate's bound in one expression.

    ``bound[v] = score[v] + Σ_j kb[j]·pending[j, v]``: newly loaded
    vertices enter the table and standing candidates absorb the shrunken
    ``kb`` in the same pass.
    """
    state.unseen = int(state.kb.sum())
    state.incomplete = state.pending.any(axis=0)
    bound = state.kb @ state.pending
    bound += state.score
    state.live_bound = np.where(state.enqueued & ~state.selected, bound, -1)


def _load_round(index: "IRRIndex", state: _NRAState) -> bool:
    """Algorithm 4 lines 23-30: one more partition per unexhausted keyword."""
    loaded = False
    for j, kw in enumerate(state.keywords):
        p = state.next_partition[j]
        if p < state.n_partitions[j]:
            _ingest_partition(state, j, index._load_partition(kw, p))
            loaded = True
    if loaded:
        _refresh_bounds(state)
    return loaded


def _cover(state: _NRAState, vertex: int) -> None:
    """Stage 5 (lines 17-22): cover a confirmed seed's RR sets — one pass
    over its lists under all keywords, whatever their number."""
    ids = state.lists_flat.take(
        segmented_arange(state.list_start[:, vertex], state.list_len[:, vertex])
    )
    fresh = ids.compress(~state.covered.take(ids))
    if not len(fresh):
        return
    state.covered[fresh] = True
    # A set whose partition is not ingested yet has length 0 here: its
    # members' lists are not loaded either, so nothing is owed to them.
    members = state.members_flat.take(
        segmented_arange(state.mem_start.take(fresh), state.mem_len.take(fresh))
    )
    # Every member of a newly covered set whose list (for that set's
    # keyword) is loaded loses one unit of score — and its bound carries
    # that score, so the same decrement applies to the bound table; a
    # pending member's bound carries kb instead and is left alone.
    # Selected members drift below -1, which the argmax ignores.
    loaded = members.compress(~state.pending.ravel().take(members))
    loaded %= state.n
    np.subtract.at(state.score, loaded, 1)
    np.subtract.at(state.live_bound, loaded, 1)


def _pick_or_load(index: "IRRIndex", state: _NRAState) -> bool:
    """Stage 4, one step of Algorithm 4's loop.

    The top candidate (max bound, smallest id on ties — the first-argmax
    rule ``greedy_max_coverage`` shares) is confirmed when it is complete
    and beats ``Σ kb``; otherwise one more round of partitions is loaded.
    Returns ``False`` when neither is possible: everything is loaded and
    no candidate is left.
    """
    vertex = int(state.live_bound.argmax())
    current = state.live_bound.item(vertex)
    # unseen >= 0, so a non-candidate (bound < 0) never passes.
    if current >= state.unseen and not state.incomplete.item(vertex):
        state.seeds.append(vertex)
        state.marginals.append(current)
        state.selected[vertex] = True
        state.live_bound[vertex] = -1
        if len(state.seeds) < state.k:  # nobody reads the scores after the last seed
            _cover(state, vertex)
        return True
    if _load_round(index, state):
        return True
    if current >= 0:
        raise IndexError_(
            "IRR query stalled: no partitions left but the top "
            "candidate is incomplete — index is inconsistent"
        )
    return False


class IRRIndex(IndexReader):
    """Query-time reader for the IRR index (Algorithm 4).

    Two :class:`~repro.core.catalog.BlockCache` instances hold decodes:
    :attr:`cache` the ``IP_w`` maps (by keyword) and ``_partitions`` the
    ``(IR, IL)`` partitions (by ``(keyword, partition)``).
    ``decode_cache_partitions`` bounds the second and switches the first
    with it: ``<= 0`` retains nothing, so every logical load re-decodes —
    the cold behaviour the experiments sweep.  Either way every logical
    load issues its read through the pager *before* it asks a cache, so
    only the decode is ever spared and a query's I/O accounting does not
    depend on what the reader served before.
    """

    FORMAT = IRR_FORMAT

    def __init__(
        self,
        path: str,
        *,
        stats: Optional[IOStats] = None,
        pool: Optional[BufferPool] = None,
        decode_cache_partitions: int = _DECODE_CACHE_PARTITIONS,
    ) -> None:
        self.decode_cache_partitions = int(decode_cache_partitions)
        # Immutable index data, bounded so a long-lived reader never
        # holds the whole index decoded in memory.
        self.cache = BlockCache(
            _IP_CACHE_KEYWORDS if self.decode_cache_partitions > 0 else 0
        )
        self._partitions = BlockCache(self.decode_cache_partitions)
        self._partition_info: Dict[str, Tuple[int, np.ndarray]] = {}
        super().__init__(path, stats=stats, pool=pool)

    def _load(self, parsed: Catalog) -> None:
        self.delta = parsed.delta
        for name, (n_partitions, first_lens) in parsed.partitions.items():
            self._partition_info[name] = (
                n_partitions,
                np.array(first_lens, dtype=np.int64),
            )

    # ------------------------------------------------------------------
    def lookup(self, keyword: str, count: int) -> Tuple[np.ndarray, bool]:
        """``(IP_w, hit)``: the first-occurrence map (one read, always
        issued; ``hit`` when :attr:`cache` spared the decode).

        ``IP_w`` is a dense length-``n`` array; a vertex that never
        occurs under the keyword holds ``_NEVER``, so ``IP_w < θ^Q_w``
        alone says "may score under this keyword".  It does not depend
        on ``count``.
        """
        record = self._reader.read_view(f"ip/{keyword}")
        return self.cache.get(keyword, partial(self._decode_ip, record))

    def _decode_ip(self, record) -> np.ndarray:
        """Batch-decode ``IP_w``: one single-id list per vertex, so the
        firsts are exactly the flat payload, scattered into a dense array."""
        keys, ptr, flat = InvertedListsRecord.decode_csr(record)
        result = np.full(self.n_vertices, _NEVER, dtype=np.int64)
        result[keys] = flat[ptr[:-1]]
        return _frozen(result)[0]

    def _load_partition(self, keyword: str, p: int) -> tuple:
        """Load partition ``p``'s ``(IR, IL)`` CSR arrays (two reads)."""
        ir_record = self._reader.read_view(f"ir/{keyword}/{p}")
        il_record = self._reader.read_view(f"il/{keyword}/{p}")
        return self._partitions.get(
            (keyword, p), partial(_decode_partition, ir_record, il_record)
        )[0]

    # ------------------------------------------------------------------
    def query(
        self, query: KBTIMQuery, lookup: Optional[Lookup] = None
    ) -> SeedSelection:
        """Algorithm 4: incremental NRA top-k aggregation; ``lookup``
        (default :meth:`lookup`) supplies each keyword's ``IP_w``."""
        started = time.perf_counter()
        before = self.stats.snapshot()
        keywords, counts, phi_q = self.plan(query)
        state = _open_state(self, keywords, counts, query.k, lookup or self.lookup)
        while len(state.seeds) < query.k and _pick_or_load(self, state):
            pass
        if len(state.seeds) < query.k:
            # Everything is loaded and every live count is zero: fill
            # with the smallest unpicked ids, as greedy_max_coverage does.
            fillers = np.flatnonzero(~state.selected)[: query.k - len(state.seeds)]
            state.seeds += fillers.tolist()
            state.marginals += [0] * len(fillers)
        stats = QueryStats(
            elapsed_seconds=time.perf_counter() - started,
            rr_sets_considered=state.offset[-1],
            rr_sets_loaded=state.rr_sets_loaded,
            partitions_loaded=state.partitions_loaded,
            io=self.stats.delta(before),
        )
        return SeedSelection(
            seeds=tuple(state.seeds),
            marginal_coverages=tuple(state.marginals),
            theta=state.offset[-1],
            phi_q=phi_q,
            stats=stats,
        )
