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

A load unit is one segment: ``irr/<w>/<p>`` frames partition ``p``'s
``IR`` and ``IL`` records back to back, and ``irr/<w>/0`` holds ``IP_w``
ahead of them, since every query loads partition 0 of every keyword it
names (at open every bound is ``Σ kb·pending`` with ``kb ≥ 1``).

**Query** (:meth:`IRRIndex.query`): NRA-style top-k aggregation
(Fagin et al.).  Every unselected vertex is a candidate, and its upper
bound sums, per query keyword, either its exact active-uncovered count
(list loaded) or the keyword's list bound ``kb[w]`` less the covered
sets already known to hold it (list not loaded and ``IP_w`` says it may
score).  The top candidate — max bound, smallest id on ties — is
confirmed as a seed exactly when it is complete: its bound is then its
marginal, and no other vertex can beat it or tie it with a smaller id.
Otherwise a round loads the next partition of each keyword the top
candidate is pending under (Algorithm 4 loads one of *every*
unexhausted keyword).

The engine keeps **one** state for all query keywords
(:class:`_NRAState`): keyword ``j``'s active set ``s`` is global set id
``offset[j] + s``, so ``uncovered``, the set and list locators and the
flat payloads are single arrays and the per-keyword flags are
``(m, n)`` arrays.  The bound table ``live_bound`` is kept up to date
in place: a loaded list adds its clipped length, a covered set takes
one off each of its members, and a refresh per load round adds the
change of ``kb @ pending``.  It runs as module-level stages over that
record — :func:`_open_state` (look up every keyword's ``IP_w`` and
decoded partitions, ingest partition 0), :func:`_ingest_partition`
(slice one decoded partition in), :func:`_refresh_bounds` (the ``kb``
terms), :func:`_pick_or_load` (``argmax``: confirm, or load a round) and
:func:`_cover` (one pass over a seed's lists under *all* keywords:
gather, ``uncovered`` filter, one segmented member gather, one
``subtract.at``).  Covering re-scores exactly the affected users at
once — the batch formulation of the paper's *lazy evaluation strategy*
(Section 5.2), which deferred scalar re-scores until a candidate
surfaced at the top of a priority queue; both select the identical seed
sequence (max current bound, smallest vertex id on ties), which the
regression tests pin, with the partitions loaded, against the dict/heap
port of these rules (``tests/test_csr_fast_paths.py::reference_irr_nra``).
State table and bound formula: ``docs/ARCHITECTURE.md``, "IRR query
engine".

Theorem 3 — Algorithm 4 returns Algorithm 2's seeds, in Algorithm 2's
order and with its marginals — is enforced by the integration tests on
shared sample tables.
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
    Catalog,
    IndexReader,
    Lookup,
    check_ids,
    check_lists,
    encode_catalog,
    keyword_entries,
)
from repro.core.offline import KeywordTable
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.rr_index import BuildReport, RRIndexBuilder, build_report, invert_csr
from repro.core.theta import ThetaPolicy
from repro.errors import CorruptIndexError, IndexError_
from repro.storage.compression import Codec, StreamDecoder, StreamEncoder
from repro.storage.records import Frame, InvertedListsRecord
from repro.storage.segments import SegmentWriter
from repro.utils.rrsets import FlatRRSets
from repro.utils.segments import segmented_arange, take_rows

__all__ = ["IRRIndexBuilder", "IRRIndex", "DEFAULT_PARTITION_SIZE"]

#: Paper setting: "the partition size δ is set to 100 for all experiments".
DEFAULT_PARTITION_SIZE = 100

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


def partition_keyword(
    rr_sets: FlatRRSets, delta: int
) -> Tuple[dict, tuple, tuple, tuple]:
    """Algorithm 3 lines 5-14 for one keyword, in flat CSR form: all the
    IRR file stores of it, derived from its RR sets — by
    :func:`write_irr_index`, and again by :meth:`IRRIndex.verify` from
    the sets a file holds.

    Returns ``(fields, ip, ir, il)``:

    * ``fields`` — the catalog entry's partition fields;
    * ``ip = (vertices, ptr, firsts)`` — ``IP_w``: ascending vertices,
      each with one id, the first RR set it occurs in;
    * ``ir = (set_ids, ptr, vertices, bounds)`` — the RR sets, grouped
      by the partition that claims them, ascending ids within each;
    * ``il = (vertices, ptr, set_ids, bounds)`` — every vertex's
      inverted list (ascending RR-set ids) in descending length order
      (ties: smaller vertex first), ``δ`` lists per partition;

    partition ``p``'s ``IR`` (``IL``) record holds entries
    ``bounds[p]:bounds[p+1]`` of ``ir`` (``il``).
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
    ir_sets = by_owner[: part_ptr[-1]]
    list_ptr = np.minimum(np.arange(n_partitions + 1) * delta, len(order))
    fields = {
        "n_partitions": n_partitions,
        "partition_first_lens": np.diff(il_ptr)[list_ptr[:-1]].tolist(),
        "partition_set_counts": np.diff(part_ptr).tolist(),
    }
    return (
        fields,
        # First occurrence = head of each (ascending) inverted list.
        (vertices, np.arange(len(vertices) + 1), set_ids[ptr[:-1]]),
        (ir_sets, *take_rows(rr_sets.ptr, rr_sets.vertices, ir_sets), part_ptr),
        (vertices[order], il_ptr, il_ids, list_ptr),
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
    """Serialise sample tables in the IRR layout (Figure 3), one segment
    per load unit: ``irr/<w>/<p>`` holds partition ``p``'s ``IR`` and
    ``IL`` records, and ``irr/<w>/0`` holds ``IP_w`` ahead of them."""
    if started is None:
        started = time.perf_counter()
    # Everything is partitioned and encoded, in one encoding session,
    # before the file is created.
    entries = keyword_entries(tables)
    encoder = StreamEncoder()
    units: List[Tuple[str, Tuple[Frame, ...]]] = []
    for name in sorted(tables):
        fields, ip, ir, il = partition_keyword(tables[name].rr_sets, delta)
        entries[name].update(fields)
        ip = InvertedListsRecord.queue_encode(encoder, *ip, codec)
        irs = InvertedListsRecord.queue_encode_partitions(encoder, *ir, codec)
        ils = InvertedListsRecord.queue_encode_partitions(encoder, *il, codec)
        for p, unit in enumerate(zip(irs, ils)):
            units.append((f"irr/{name}/{p}", (ip, *unit) if p == 0 else unit))
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
        for segment, unit in units:
            writer.add(segment, b"".join(frame(streams) for frame in unit))
    return build_report(path, tables, started)


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays`` made read-only: a decode is shared by every query the
    cache serves, so an in-place op must raise, not corrupt."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _decode_segment(segment, count: int) -> tuple:
    """One decoding session over the ``count`` records of one segment:
    their CSR arrays, in record order, read-only (a partition ``p ≥ 1``
    is ``IR``'s three then ``IL``'s three)."""
    decoder = StreamDecoder()
    takes = [
        InvertedListsRecord.queue(decoder, record)
        for record in InvertedListsRecord.split(segment, count)
    ]
    streams = decoder.finish()
    return _frozen(*(array for take in takes for array in take(streams)))


def _rows(layout: tuple, p: int) -> tuple:
    """Partition ``p``'s record of a :func:`partition_keyword` ``(keys,
    ptr, ids, bounds)``, as the ``(keys, ptr, ids)`` its decode returns."""
    keys, ptr, ids, bounds = layout
    lo, hi = bounds[p], bounds[p + 1]
    return keys[lo:hi], ptr[lo : hi + 1] - ptr[lo], ids[ptr[lo] : ptr[hi]]


@dataclass
class _NRAState:
    """One query's NRA state: every query keyword a column of one record.

    Keyword ``j``'s active RR set ``s`` (``s < θ^Q_j``) is global set id
    ``offset[j] + s`` — the numbering ``merge_coverage_csr`` gives the RR
    path.  The bound table spans all ``n`` vertices, so every unselected
    vertex is a candidate from the start, bounded by the keywords
    ``IP_w`` lets it score under.  Stage functions below are the only
    writers; ARCHITECTURE.md "IRR query engine" has the table of who
    writes what.
    """

    keywords: List[str]
    k: int  # seeds to pick: min(k asked for, n)
    n: int  # vertices
    theta: List[int]  # θ^Q_j: only keyword j's set ids below this are live
    offset: List[int]  # first global set id of keyword j
    n_partitions: Sequence[int]
    first_lens: Sequence[np.ndarray]  # longest list of each partition of keyword j
    # Keyword j's decoded partitions from lookup; a load past its end appends.
    partitions: Sequence[list]
    next_partition: List[int]
    kb: np.ndarray  # (m,) bound on a not-yet-loaded list's count under keyword j
    # (m, n): v may still score under keyword j (IP_j[v] < θ^Q_j) and its
    # list is not loaded — v's bound carries kb[j] instead of a count.
    pending: np.ndarray
    # (n,) kb @ pending as of the last refresh; > 0 exactly where v is
    # pending under some keyword (kb[j] >= 1 while j has pending vertices).
    kb_part: np.ndarray
    # Loaded inverted lists, clipped to the active prefix, as global set
    # ids: v's list under keyword j is lists_flat[start : start + len].
    list_start: np.ndarray  # (m, n)
    list_len: np.ndarray  # (m, n), 0 until loaded
    lists_flat: np.ndarray
    # Loaded RR sets by global id: members_flat[start : start + len].
    mem_start: np.ndarray  # (Σθ,)
    mem_len: np.ndarray  # (Σθ,), 0 until loaded
    members_flat: np.ndarray
    uncovered: np.ndarray  # (Σθ,) set holds no confirmed seed yet
    # (n,) NRA upper bound: Σ_j (loaded: clipped length; pending: kb[j])
    # less the covered sets that hold v; < 0 = selected.
    live_bound: np.ndarray
    seeds: List[int]
    marginals: List[int]
    rr_sets_loaded: int = 0
    partitions_loaded: int = 0
    cache_hits: int = 0  # partitions loaded whose decode the cache spared


def _open_state(
    index: "IRRIndex",
    keywords: List[str],
    counts: Dict[str, int],
    k: int,
    lookup: Lookup,
) -> _NRAState:
    """Stage 1: look up every keyword's ``IP_w`` and partitions, lay out
    the merged id space, ingest every partition 0 and build the first
    bound table.  That is the state the first load round left: at open
    every bound is ``Σ kb·pending`` with ``kb ≥ 1``, so the top candidate
    (the root of set 0 scores under its keyword) is never complete."""
    n = index.n_vertices
    theta = [counts[kw] for kw in keywords]
    offset = [0, *accumulate(theta)]
    n_partitions, first_lens = zip(*(index._partition_info[kw] for kw in keywords))
    values, hits = zip(*(lookup(kw, theta[j]) for j, kw in enumerate(keywords)))
    ips, partitions = zip(*values)
    pending = np.less(ips, np.array(theta)[:, None])
    state = _NRAState(
        keywords=keywords,
        k=min(k, n),
        n=n,
        theta=theta,
        offset=offset,
        n_partitions=n_partitions,
        first_lens=first_lens,
        partitions=partitions,
        next_partition=[0] * len(keywords),
        kb=np.zeros(len(keywords), dtype=np.int64),
        pending=pending,
        kb_part=np.zeros(n, dtype=np.int64),
        list_start=np.zeros((len(keywords), n), dtype=np.int64),
        list_len=np.zeros((len(keywords), n), dtype=np.int64),
        lists_flat=np.empty(0, dtype=np.int64),
        mem_start=np.zeros(offset[-1], dtype=np.int64),
        mem_len=np.zeros(offset[-1], dtype=np.int64),
        members_flat=np.empty(0, dtype=np.int64),
        uncovered=np.ones(offset[-1], dtype=bool),
        live_bound=np.zeros(n, dtype=np.int64),
        seeds=[],
        marginals=[],
        cache_hits=sum(hits),
    )
    for j, decoded in enumerate(partitions):
        _ingest_partition(state, j, decoded[0])
    _refresh_bounds(state)
    return state


def _ingest_partition(state: _NRAState, j: int, decoded: tuple) -> None:
    """Stage 2: fold keyword ``j``'s next ``(IR, IL)`` partition into the
    state and set ``kb[j]`` to the partition after it.

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
    state.members_flat = np.concatenate([state.members_flat, ir_flat])
    state.rr_sets_loaded += len(sets)
    # Inverted lists: clip each to the active ids; the number of kept
    # positions before each list boundary is the clipped CSR pointer.
    kept = (il_flat < theta).nonzero()[0]
    bounds = kept.searchsorted(il_ptr)
    lengths = bounds[1:] - bounds[:-1]
    clipped = il_flat.take(kept)
    clipped += offset
    # Each vertex is in exactly one IL partition per keyword, so il_keys
    # is duplicate-free and every locator entry is written once.
    state.list_start[j][il_keys] = bounds[:-1] + len(state.lists_flat)
    state.list_len[j][il_keys] = lengths
    state.lists_flat = np.concatenate([state.lists_flat, clipped])
    # The raw length: a set a seed covered before this list loaded was
    # already taken off v's bound at the cover (its members were known:
    # the set's IR partition is no later than the seed's list's).
    state.live_bound[il_keys] += lengths
    state.pending[j][il_keys] = False
    state.partitions_loaded += 1
    # kb[j]: the next partition's longest list, clipped; 0 once exhausted.
    state.next_partition[j] += 1
    p = state.next_partition[j]
    state.kb[j] = min(state.first_lens[j][p], theta) if p < state.n_partitions[j] else 0


def _refresh_bounds(state: _NRAState) -> None:
    """Stage 3, at open and once per load round: every bound's ``kb``
    terms, in one pass.

    ``live_bound`` gains the change of ``Σ_j kb[j]·pending[j, v]``:
    newly loaded lists drop their ``kb`` (ingest added their length)
    and the others absorb the shrunken ``kb``.  A seed was complete when
    picked, so its term stays 0 and its bound below 0.  The sum runs in
    float64, which numpy hands to BLAS (int64 × bool has no such path);
    it is exact, since ``Σ kb`` is far below 2**53.
    """
    kb_part = np.dot(state.kb.astype(np.float64), state.pending).astype(np.int64)
    state.live_bound += kb_part
    state.live_bound -= state.kb_part
    state.kb_part = kb_part


def _load_round(index: "IRRIndex", state: _NRAState, vertex: int) -> bool:
    """Algorithm 4 lines 23-30, for what the top candidate ``vertex``
    waits on: the next partition of every keyword it is pending under,
    then one refresh.  Each of those keywords holds its list in a later
    partition, so none is exhausted; ``False`` (nothing to load) means
    the index is inconsistent."""
    for j in state.pending[:, vertex].nonzero()[0].tolist():
        p = state.next_partition[j]
        if p == state.n_partitions[j]:
            return False
        decoded, hit = index._load_partition(state.keywords[j], state.partitions[j], p)
        state.cache_hits += hit
        _ingest_partition(state, j, decoded)
    _refresh_bounds(state)
    return True


def _cover(state: _NRAState, vertex: int) -> None:
    """Stage 5 (lines 17-22): cover a confirmed seed's RR sets — one pass
    over its lists under all keywords, whatever their number."""
    ids = state.lists_flat.take(
        segmented_arange(state.list_start[:, vertex], state.list_len[:, vertex])
    )
    fresh = ids[state.uncovered[ids]]
    if not len(fresh):
        return
    state.uncovered[fresh] = False
    # The seed's lists are loaded, so every set in them is too (a set's
    # IR partition is no later than a list's that holds it).
    members = state.members_flat.take(
        segmented_arange(state.mem_start.take(fresh), state.mem_len.take(fresh))
    )
    # Every member of a newly covered set loses one unit of bound, its
    # list for that set's keyword loaded or not: a pending term
    # kb[j] - (covered sets seen) still caps the list's uncovered count.
    # Selected members drift below -1, which the argmax ignores.
    np.subtract.at(state.live_bound, members, 1)


def _pick_or_load(index: "IRRIndex", state: _NRAState) -> None:
    """Stage 4, one step of Algorithm 4's loop (some vertex is unselected).

    The top candidate (max bound, smallest id on ties — the first-argmax
    rule ``greedy_max_coverage`` shares) is confirmed exactly when it is
    complete: its bound is then its marginal, and every other bound caps
    its own vertex's marginal, so the pick is Algorithm 2's.  Otherwise
    a round loads what it is pending under.
    """
    vertex = int(state.live_bound.argmax())
    if not state.kb_part.item(vertex):
        state.seeds.append(vertex)
        state.marginals.append(state.live_bound.item(vertex))
        state.live_bound[vertex] = -1
        if len(state.seeds) < state.k:  # nobody reads the bounds after the last seed
            _cover(state, vertex)
    elif not _load_round(index, state, vertex):
        raise IndexError_(
            "IRR query stalled: no partitions left but the top "
            "candidate is incomplete — index is inconsistent"
        )


class IRRIndex(IndexReader):
    """Query-time reader for the IRR index (Algorithm 4).

    :attr:`cache` holds, per keyword, everything decoded of it:
    ``IP_w`` and the list of its partitions decoded so far, which
    partition 0 starts and each later load extends (a query loads a
    keyword's partitions in order).  ``prefix_cache_keywords`` (default
    :attr:`CACHE_KEYWORDS`) bounds it in keywords; ``0`` retains
    nothing, so every query decodes all it loads — the cold behaviour
    the experiments sweep.  Either way every load issues its read
    through the pager *before* it decodes or not, so only the decode is
    ever spared and a query's I/O accounting does not depend on what
    the reader served before.
    """

    FORMAT = IRR_FORMAT
    CACHE_KEYWORDS = 64

    def _load(self, parsed: Catalog) -> None:
        self.delta = parsed.delta
        self._partition_fields = parsed.partitions
        self._partition_info: Dict[str, Tuple[int, np.ndarray]] = {
            name: (
                fields["n_partitions"],
                np.array(fields["partition_first_lens"], dtype=np.int64),
            )
            for name, fields in parsed.partitions.items()
        }

    # ------------------------------------------------------------------
    def lookup(self, keyword: str, count: int) -> Tuple[tuple, bool]:
        """``((IP_w, partitions), hit)``: the keyword's decoded value,
        from segment ``irr/<kw>/0`` (one read, always issued; ``hit``
        when :attr:`cache` spared the decode).

        ``IP_w`` is a dense length-``n`` array; a vertex that never
        occurs under the keyword holds ``_NEVER``, so ``IP_w < θ^Q_w``
        alone says "may score under this keyword".  ``partitions`` is
        the list of decoded ``(IR, IL)`` partitions, partition 0 first;
        :meth:`_load_partition` appends the later ones.  Neither depends
        on ``count``.
        """
        segment = self._reader.read_view(f"irr/{keyword}/0")
        return self.cache.get(keyword, partial(self._decode_first, segment))

    def _decode_first(self, segment) -> tuple:
        """``irr/<kw>/0`` in one session, read-only.  ``IP_w`` holds one
        single-id list per vertex, so the firsts are exactly its flat
        payload, scattered into a dense array."""
        keys, ptr, flat, *partition = _decode_segment(segment, 3)
        ip = np.full(self.n_vertices, _NEVER, dtype=np.int64)
        ip[keys] = flat[ptr[:-1]]
        return _frozen(ip)[0], [tuple(partition)]

    def _load_partition(
        self, keyword: str, partitions: list, p: int
    ) -> Tuple[tuple, bool]:
        """``(decoded, hit)``: load partition ``p ≥ 1``'s ``(IR, IL)`` CSR
        arrays (one read) into ``partitions``, the keyword's list from
        :meth:`lookup`, which holds partitions ``< p`` already; it is
        decoded only if the list does not hold it yet (``hit`` when it
        does)."""
        segment = self._reader.read_view(f"irr/{keyword}/{p}")
        hit = p < len(partitions)
        if not hit:
            partitions.append(_decode_segment(segment, 2))
        return partitions[p], hit

    def warm(self, keyword: str) -> int:
        """Load every partition of one validated keyword, each read through
        the pager, into its :attr:`cache` entry; the number decoded."""
        (_ip, partitions), hit = self.lookup(keyword, 1)
        decoded = int(not hit)
        for p in range(1, self._partition_info[keyword][0]):
            decoded += not self._load_partition(keyword, partitions, p)[1]
        return decoded

    def verify(self, keyword: str) -> int:
        """Deep-check one keyword (:func:`~repro.core.catalog.verify_index`):
        reassemble ``R_w`` from the ``IR`` records, re-run the writer's
        :func:`partition_keyword` on it and compare the catalog's partition
        fields and every record with what :func:`write_irr_index` would
        write; the number of RR sets."""
        path = self._reader.path
        n_sets = self.catalog[keyword].n_sets
        names = [f"irr/{keyword}/{p}" for p in range(self._partition_info[keyword][0])]
        # Per segment, its records' (keys, ptr, ids): (IP,) IR, IL.
        stored = []
        for p, name in enumerate(names):
            arrays = _decode_segment(self._reader.read_view(name), 2 + (p == 0))
            stored.append([arrays[i : i + 3] for i in range(0, len(arrays), 3)])
        # Reassembly needs every set id below n_sets, each claimed once.
        irs = [records[-2] for records in stored]
        set_ids = np.concatenate([np.empty(0, dtype=np.int64)] + [ir[0] for ir in irs])
        where = f"irr/{keyword} IR"
        check_ids(path, where, set_ids, n_sets, "set")
        claims = np.bincount(set_ids, minlength=n_sets)
        if (claims != 1).any():
            wrong = int(np.argmax(claims != 1))
            raise CorruptIndexError(
                f"{path}: {where} claims RR set {wrong} "
                f"{claims[wrong]} times, not once"
            )
        claimed = FlatRRSets.concatenate([FlatRRSets(ptr, ids) for _, ptr, ids in irs])
        rr_sets = FlatRRSets(
            *take_rows(claimed.ptr, claimed.vertices, np.argsort(set_ids))
        )
        check_ids(path, where, rr_sets.vertices, self.n_vertices, "vertex")
        if self.delta < 1:
            raise CorruptIndexError(
                f"{path}: index catalog field delta is {self.delta}"
            )
        fields, ip, ir, il = partition_keyword(rr_sets, self.delta)
        for field, value in fields.items():
            if self._partition_fields[keyword][field] != value:
                raise CorruptIndexError(
                    f"{path}: index catalog field keywords.{keyword}.{field} "
                    "disagrees with RR sets"
                )
        for p, (name, records) in enumerate(zip(names, stored)):
            rebuilt = [("IR", "set", _rows(ir, p)), ("IL", "vertex", _rows(il, p))]
            if p == 0:
                rebuilt.insert(0, ("IP", "vertex", ip))
            for got, (label, key, want) in zip(records, rebuilt):
                check_lists(path, f"{name} {label}", got, want, key)
        return n_sets

    # ------------------------------------------------------------------
    def query(
        self, query: KBTIMQuery, lookup: Optional[Lookup] = None
    ) -> SeedSelection:
        """Algorithm 4: incremental NRA top-k aggregation; ``lookup``
        (default :meth:`lookup`) supplies each keyword's ``IP_w`` and
        decoded partitions, which the query's later loads extend.  Each
        partition loaded is one load unit of ``stats.cache_hits`` /
        ``cache_misses``."""
        started = time.perf_counter()
        before = self.stats.snapshot()
        keywords, counts, phi_q = self.plan(query)
        state = _open_state(self, keywords, counts, query.k, lookup or self.lookup)
        while len(state.seeds) < state.k:
            _pick_or_load(self, state)
        stats = QueryStats(
            elapsed_seconds=time.perf_counter() - started,
            rr_sets_considered=state.offset[-1],
            rr_sets_loaded=state.rr_sets_loaded,
            partitions_loaded=state.partitions_loaded,
            cache_hits=state.cache_hits,
            cache_misses=state.partitions_loaded - state.cache_hits,
            io=self.stats.delta(before),
        )
        return SeedSelection(
            seeds=tuple(state.seeds),
            marginal_coverages=tuple(state.marginals),
            theta=state.offset[-1],
            phi_q=phi_q,
            stats=stats,
        )
