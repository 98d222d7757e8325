"""Outside-in tracing: spans recorded by the benchmark around calls into
each layer's public functions.  Nothing in ``src/`` is instrumented.

A span is ``[name, request, parent, start_ns, end_ns]``; spans of one
query share ``request``.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro import KBTIMQuery, lazy_greedy_max_coverage
from repro.core.coverage import merge_coverage_csr
from repro.core.query import resolve_unique
from repro.core.rr_index import KeywordCoverageCSR, plan_theta_q
from repro.storage import InvertedListsRecord, RRSetsRecord

import targets

NAME, REQUEST, PARENT, START, END = range(5)


class Tracer:
    """Span recorder for one thread (a stack gives each span its parent)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, request: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, request, parent, time.perf_counter_ns(), 0])
        self._stack.append(index)
        return index

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    def add(self, name: str, request: int, parent: int, start: int, end: int) -> None:
        """Record a span measured elsewhere (a worker-reported duration)."""
        self.spans.append([name, request, parent, start, end])


def merge_span_lists(span_lists: Sequence[Sequence[list]]) -> List[list]:
    """Concatenate span lists, re-basing parent indices."""
    merged: List[list] = []
    for spans in span_lists:
        base = len(merged)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += base
            merged.append(span)
    return merged


def layer_table(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, median duration and median self time (µs)."""
    child_time = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    durations: Dict[str, List[int]] = defaultdict(list)
    selfs: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        durations[span[NAME]].append(duration)
        selfs[span[NAME]].append(duration - child_time[index])
    return {
        name: {
            "count": len(values),
            "median_us": statistics.median(values) / 1e3,
            "self_median_us": statistics.median(selfs[name]) / 1e3,
            "self_total_ms": sum(selfs[name]) / 1e6,
        }
        for name, values in durations.items()
    }


class TracedTarget:
    """Wraps a target's ``query`` in spans; one tracer per calling thread.

    Request ids are the positions of the queries in the workload's list,
    offset by a pass counter, so a replayed stage can be matched to the
    real call it mirrors.
    """

    def __init__(
        self, target: targets.Target, span_name: str, queries: Sequence[KBTIMQuery]
    ) -> None:
        self.target = target
        self.span_name = span_name
        self.n = len(queries)
        # Equal queries cost the same, so the last position stands for all.
        self.positions = {query: pos for pos, query in enumerate(queries)}
        self.shard_counts: Dict[int, int] = defaultdict(int)
        self.answers: Dict[int, object] = {}
        self._tracers: Dict[int, Tracer] = {}
        self._lock = threading.Lock()
        self._sequence = itertools.count()

    def _tracer(self) -> Tracer:
        ident = threading.get_ident()
        tracer = self._tracers.get(ident)
        if tracer is None:
            with self._lock:
                tracer = self._tracers.setdefault(ident, Tracer())
        return tracer

    def query(self, query: KBTIMQuery):
        tracer = self._tracer()
        request = next(self._sequence) * self.n + self.positions[query]
        tracer.begin("client.query", request)
        try:
            if self.target.shard_of is not None:
                tracer.begin("dispatch.peek", request)
                shard = self.target.shard_of(query)
                tracer.end()
                self.shard_counts[shard] += 1
            index = tracer.begin(self.span_name, request)
            try:
                answer = self.target.query(query)
            finally:
                tracer.end()
            if self.span_name == "pool.query":
                start = tracer.spans[index][START]
                elapsed_ns = int(answer.stats.elapsed_seconds * 1e9)
                tracer.add("server.query", request, index, start, start + elapsed_ns)
            self.answers[self.positions[query]] = answer
            return answer
        finally:
            tracer.end()

    def spans(self) -> List[list]:
        return merge_span_lists([t.spans for t in self._tracers.values()])


class ColdLoader:
    """The miss path of ``RRIndex.load_keyword_csr`` through public calls:
    bounded read → PFOR/varint decode → CSR block build, one span each."""

    def __init__(self, rr_path: str, names: Sequence[str]) -> None:
        self.reader = targets.open_segment_reader(rr_path)
        self.headers = {}
        for name in names:
            segment = f"rr/{name}"
            prefix = self.reader.read_range(segment, 0, RRSetsRecord.HEADER_SIZE)
            n_sets, group_size, payload_len, payload_start = RRSetsRecord.read_header(
                prefix
            )
            table_start, table_len = RRSetsRecord.offset_table_range(prefix)
            offsets = RRSetsRecord.decode_offsets(
                self.reader.read_range(segment, table_start, table_len)
            )
            self.headers[name] = (n_sets, group_size, payload_len, payload_start, offsets)
        self.bytes_read = 0
        self.ids_decoded = 0

    def load(self, tracer: Tracer, request: int, name: str) -> KeywordCoverageCSR:
        n_sets, group_size, payload_len, payload_start, offsets = self.headers[name]
        end = RRSetsRecord.prefix_payload_end(offsets, payload_len, group_size, n_sets)
        tracer.begin("storage.read", request)
        payload = self.reader.read_range_view(f"rr/{name}", payload_start, end)
        tracer.end()
        tracer.begin("records.decode_rr", request)
        set_ptr, set_vertices = RRSetsRecord.decode_prefix_csr(payload, n_sets)
        tracer.end()
        tracer.begin("storage.read", request)
        record = self.reader.read_view(f"inv/{name}")
        tracer.end()
        tracer.begin("records.decode_inv", request)
        keys, inv_ptr, inv_flat = InvertedListsRecord.decode_csr(record)
        tracer.end()
        tracer.begin("rr_index.block_build", request)
        block = KeywordCoverageCSR.from_csr_arrays(
            set_ptr, set_vertices, keys, inv_ptr, inv_flat
        )
        tracer.end()
        self.bytes_read += len(payload) + len(record)
        self.ids_decoded += len(set_vertices) + len(inv_flat)
        return block

    def close(self) -> None:
        self.reader.close()


class RRReplay:
    """Replays queries stage by stage through the RR layers' public functions.

    Mirrors ``KBTIMServer.query``: plan → per-keyword block (cache hit, or
    the cold read/decode/build path) → ``active_part`` → merge → lazy
    greedy, one span per stage, and checks every replayed answer against
    the oracle's.  It owns its reader, so it shares no cache with the
    target it is compared to.
    """

    def __init__(
        self,
        rr_path: str,
        names: Sequence[str],
        queries: Sequence[KBTIMQuery],
        expected: Sequence,
        *,
        cold: bool,
    ) -> None:
        self.tracer = Tracer()
        self.queries = queries
        self.expected = expected
        self.positions = {query: pos for pos, query in enumerate(queries)}
        self.index = targets.open_replay_index(rr_path)
        self.loader: Optional[ColdLoader] = ColdLoader(rr_path, names) if cold else None
        self.full = {name: self.index.catalog[name].n_sets for name in names}
        if not cold:
            for name in names:
                self.index.load_keyword_csr(name, self.full[name])
        self.seen: Dict[int, int] = defaultdict(int)
        self.replayed = 0
        self.wrong = 0
        self.sets_total = 0

    def step(self, query: KBTIMQuery) -> None:
        tracer, index = self.tracer, self.index
        pos = self.positions[query]
        request = self.seen[pos] * len(self.queries) + pos
        self.seen[pos] += 1
        tracer.begin("replay.query", request)
        tracer.begin("query.plan", request)
        keywords = resolve_unique(query.keywords, str)
        _theta_q, counts, _phi_q = plan_theta_q(keywords, index.catalog)
        tracer.end()
        parts = []
        base = 0
        for keyword in keywords:
            if self.loader is not None:
                block = self.loader.load(tracer, request, keyword)
            else:
                tracer.begin("rr_index.load_csr_hit", request)
                block = index.load_keyword_csr(keyword, self.full[keyword])
                tracer.end()
            tracer.begin("rr_index.active_part", request)
            parts.append(block.active_part(counts[keyword], base))
            tracer.end()
            base += counts[keyword]
        tracer.begin("coverage.merge", request)
        instance = merge_coverage_csr(index.n_vertices, parts)
        tracer.end()
        tracer.begin("coverage.greedy", request)
        seeds, marginals = lazy_greedy_max_coverage(instance, query.k)
        tracer.end()
        tracer.end()
        self.sets_total += instance.n_sets
        self.replayed += 1
        if (tuple(seeds), tuple(marginals), instance.n_sets) != self.expected[pos]:
            self.wrong += 1

    def run_for(self, seconds: float) -> None:
        """Whole passes over the query list until ``seconds`` have elapsed."""
        deadline = time.perf_counter() + seconds
        while self.replayed == 0 or time.perf_counter() < deadline:
            for query in self.queries:
                self.step(query)

    def close(self) -> None:
        self.index.close()
        if self.loader is not None:
            self.loader.close()


def probe_transport(answers: Sequence, name: str) -> Dict[str, float]:
    """Frame recorded answers through the flat response transport:
    ``ResponseWriter.write`` + ``ResponseReader.read``, one answer a frame."""
    writer, reader = targets.open_transport(name)
    times = []
    nbytes_total = 0
    try:
        for seq, answer in enumerate(answers):
            started = time.perf_counter_ns()
            nbytes, generation = writer.write([answer], seq)
            (decoded,) = reader.read(seq, nbytes, generation)
            times.append(time.perf_counter_ns() - started)
            nbytes_total += nbytes
            if decoded.seeds != answer.seeds:
                raise RuntimeError("transport round trip changed an answer")
    finally:
        reader.close()
        writer.close()
    return {
        "frame_us": statistics.median(times) / 1e3,
        "bytes_per_answer": nbytes_total / len(times),
    }


def stage_sum_over_wall(
    replay_spans: Sequence[list], real_spans: Sequence[list], real_name: str, n: int
) -> float:
    """Σ replayed stage time ÷ Σ real call wall, matched query by query.

    Each side contributes the median over its passes for every query
    position both sides executed (request id modulo ``n``).
    """
    stage: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for span in replay_spans:
        if span[NAME] != "replay.query":
            stage[span[REQUEST] % n][span[REQUEST]] += span[END] - span[START]
    real: Dict[int, List[int]] = defaultdict(list)
    for span in real_spans:
        if span[NAME] == real_name:
            real[span[REQUEST] % n].append(span[END] - span[START])
    common = [pos for pos in stage if pos in real]
    if not common:
        return 0.0
    stage_sum = sum(statistics.median(stage[pos].values()) for pos in common)
    real_sum = sum(statistics.median(real[pos]) for pos in common)
    return stage_sum / real_sum
