"""Reference implementations the tests compare ``src/`` against.

Not collected by pytest (the name matches no ``python_files`` pattern);
test modules import it as ``from oracles import ...``.
"""

from itertools import accumulate

import numpy as np

from repro.errors import StorageError
from repro.storage.compression import Codec


def seed_greedy_max_coverage(n_vertices, rr_sets, k):
    """The seed (pre-CSR) greedy, verbatim: dict inversion, masked argmax.

    The only independent oracle for ``repro.greedy_max_coverage`` — the
    benchmark's own answer check runs the same kernel on both sides.
    """
    rr_sets = [np.asarray(rr, dtype=np.int64) for rr in rr_sets]
    inverted = {}
    for set_id, rr in enumerate(rr_sets):
        for v in rr:
            inverted.setdefault(int(v), []).append(set_id)
    counts = np.zeros(n_vertices, dtype=np.int64)
    for v, ids in inverted.items():
        counts[v] = len(ids)
    covered = np.zeros(len(rr_sets), dtype=bool)
    selected = np.zeros(n_vertices, dtype=bool)
    seeds, marginals = [], []
    for _ in range(min(k, n_vertices)):
        masked = np.where(selected, -1, counts)
        best = int(np.argmax(masked))
        seeds.append(best)
        marginals.append(int(counts[best]))
        selected[best] = True
        for set_id in inverted.get(best, ()):
            if not covered[set_id]:
                covered[set_id] = True
                counts[rr_sets[set_id]] -= 1
    return seeds, marginals


def encode_varint(value):
    """Encode one non-negative integer (< 2^64) as LEB128.  Moved here
    from ``storage/varint.py`` when its last caller in ``src/`` went: the
    writers emit varints through ``encode_varints``."""
    if value < 0:
        raise StorageError(f"varints encode non-negative values, got {value}")
    if value >> 64:
        raise StorageError("varint exceeds 64 bits")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


# ----------------------------------------------------------------------
# The scalar reference decoder of the v2 (columnar stream) format: one
# Python int per value, bits cut out of the buffer one field at a time.
# Shares nothing with ``storage/`` but the ``Codec`` tags, so it is the
# independent oracle for ``StreamDecoder`` and the two record decoders —
# the benchmark decodes with those on both sides.
# ----------------------------------------------------------------------
def _varint(data, pos):
    value = shift = 0
    while True:
        if pos >= len(data) or shift > 63:
            raise StorageError("truncated or over-long varint")
        value |= (data[pos] & 0x7F) << shift
        pos, shift = pos + 1, shift + 7
        if not data[pos - 1] & 0x80:
            return value, pos


def decode_stream(data, tag, m, pos=0):
    """``m`` values under codec ``tag`` at ``pos``: ``(values, end)``."""
    if m == 0:
        return [], pos
    if tag == Codec.RAW.value:
        end = pos + 8 * m
        values = [int.from_bytes(data[i : i + 8], "little") for i in range(pos, end, 8)]
    elif tag == Codec.PFOR.value:
        n_blocks = -(-m // 128)
        widths = list(data[pos : pos + n_blocks])
        if len(widths) < n_blocks or max(widths) > 64:
            raise StorageError("PFoR width column truncated or above 64")
        n_exceptions, pos = _varint(data, pos + n_blocks)
        excess_width = data[pos] if n_exceptions else 0
        cursor = (pos + bool(n_exceptions)) * 8
        def take(width):
            nonlocal cursor
            word = int.from_bytes(data[cursor // 8 :][:9], "little") >> cursor % 8
            cursor += width
            return word & ((1 << width) - 1)

        positions = [take((m - 1).bit_length()) for _ in range(n_exceptions)]
        excesses = [take(excess_width) for _ in range(n_exceptions)]
        values = [take(widths[i // 128]) for i in range(m)]
        for position, excess in zip(positions, excesses):
            if position >= m:
                raise StorageError("PFoR exception position out of range")
            values[position] |= excess << widths[position // 128]
        if max(values) >> 64:
            raise StorageError("PFoR exception overflows 64 bits")
        end = (cursor + 7) // 8
    else:
        raise StorageError(f"unknown codec tag {tag}")
    if end > len(data):
        raise StorageError("truncated stream")
    return values, end


def decode_id_lists(data, tag, n, pos=0):
    """An id-list set of ``n`` lists at ``pos``: ``(lists, end)``."""
    total, pos = _varint(data, pos)
    counts, pos = decode_stream(data, tag, n, pos)
    gaps, pos = decode_stream(data, tag, total, pos)
    if sum(counts) != total:
        raise StorageError("counts do not add up to the gaps stream")
    lists, at = [], 0
    for count in counts:
        ids = list(accumulate(gaps[at : at + count]))
        if ids and (max(gaps[at : at + count]) >> 63 or ids[-1] >> 63):
            raise StorageError("id outside the signed 64-bit domain")
        lists.append(ids)
        at += count
    return lists, pos


def decode_rr_payload(payload, count):
    """The first ``count`` RR sets of an ``RRSetsRecord`` payload."""
    sets, pos = [], 0
    while len(sets) < count:
        n, at = _varint(payload, pos + 1)
        chunk, pos = decode_id_lists(payload, payload[pos], n, at)
        sets += chunk
    return sets[:count]


def decode_inverted_record(record):
    """An ``InvertedListsRecord`` as ``[(key, ids)]``."""
    n_lists, payload = int.from_bytes(record[:4], "little"), record[12:]
    zigzag, pos = decode_stream(payload, payload[0], n_lists, 1)
    lists, _end = decode_id_lists(payload, payload[0], n_lists, pos)
    keys = accumulate((z >> 1) ^ -(z & 1) for z in zigzag)
    return list(zip(keys, lists))


# ----------------------------------------------------------------------
# The per-stream reference encoder: what ``storage/compression.py`` did
# one stream at a time before a session encoded every stream of an index
# file in one pass, written one Python int per value.  Shares nothing
# with ``storage/`` but the ``Codec`` tags, so it is the oracle for
# ``StreamEncoder``.
# ----------------------------------------------------------------------
def encode_stream_reference(values, codec):
    """One stream of non-negative ints (< 2^64) under ``codec``: bytes."""
    values = [int(v) for v in values]
    if not values:
        return b""
    if codec is Codec.RAW:
        return b"".join(v.to_bytes(8, "little") for v in values)
    m = len(values)
    position_width = (m - 1).bit_length()
    widths = []
    for lo in range(0, m, 128):
        lengths = [v.bit_length() for v in values[lo : lo + 128]]
        # Each width's bits: every value at the width, plus the excess
        # bits and a position for each value wider than it.
        costs = [
            len(lengths) * w + sum(b - w + position_width for b in lengths if b > w)
            for w in range(65)
        ]
        widths.append(costs.index(min(costs)))
    width_at = [widths[i // 128] for i in range(m)]
    exceptions = [i for i in range(m) if values[i].bit_length() > width_at[i]]
    excesses = [values[i] >> width_at[i] for i in exceptions]
    excess_width = max((e.bit_length() for e in excesses), default=0)
    fields = [(i, position_width) for i in exceptions]
    fields += [(e, excess_width) for e in excesses]
    fields += [(v & ((1 << w) - 1), w) for v, w in zip(values, width_at)]
    packed = n_bits = 0
    for value, width in fields:
        packed |= value << n_bits
        n_bits += width
    return (
        bytes(widths)
        + encode_varint(len(exceptions))
        + (bytes([excess_width]) if exceptions else b"")
        + packed.to_bytes((n_bits + 7) // 8, "little")
    )


def encode_id_lists_reference(lists, codec):
    """An id-list set of sorted id lists: ``total | counts | gaps``."""
    gaps = []
    for ids in lists:
        gaps += [b - a for a, b in zip([0] + ids, ids)]
    return (
        encode_varint(len(gaps))
        + encode_stream_reference([len(ids) for ids in lists], codec)
        + encode_stream_reference(gaps, codec)
    )


# ----------------------------------------------------------------------
# The dataset generators as they were written before they drew through
# ``utils/rng.py::weighted_sample`` and built their edge lists from
# arrays: ``Generator.choice`` per draw and one Python append per edge.
# The generators must reproduce them exactly (same draws, same order).
# ----------------------------------------------------------------------
def _first_occurrences(src, dst):
    seen, edges = set(), []
    for edge in zip(src, dst):
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def twitter_like_edges_reference(n, avg_degree, hub_bias, passive_fraction, gen):
    """``twitter_like``'s edge list."""
    if passive_fraction is None:
        passive_fraction = float(np.clip(1.0 - avg_degree / 24.0, 0.02, 0.7))
    active_share = max(1.0 - passive_fraction, 0.05)
    m_per_node = max(1, int(round(avg_degree / (active_share * 1.6))))
    passive = gen.random(n) < passive_fraction
    passive[0] = True
    popularity = np.zeros(n, dtype=np.float64)
    src, dst = [], []
    for v in range(1, n):
        if passive[v]:
            continue
        if gen.random() < 0.03:
            k = int(m_per_node * 3 * (1.0 + gen.pareto(1.5)))
        else:
            k = int(gen.poisson(m_per_node))
        k = min(v, k)
        if k == 0:
            continue
        weights = (popularity[:v] + 1.0) ** hub_bias
        weights /= weights.sum()
        for u in gen.choice(v, size=k, replace=False, p=weights):
            src.append(int(u))
            dst.append(v)
            popularity[u] += 1.0
    if src:
        reciprocate = gen.random(len(src)) < 0.3
        back = [i for i in range(len(src)) if reciprocate[i] and not passive[src[i]]]
        src, dst = src + [dst[i] for i in back], dst + [src[i] for i in back]
    return _first_occurrences(src, dst)


def news_like_edges_reference(n, avg_degree, skew, gen):
    """``news_like``'s edge list."""
    out_degrees = np.clip(gen.poisson(avg_degree, size=n), 0, n - 1)
    popularity = gen.exponential(1.0, size=n)
    popularity /= popularity.sum()
    src, dst = [], []
    for v in range(n):
        d = int(out_degrees[v])
        if d == 0:
            continue
        n_biased = int((gen.random(d) < skew).sum())
        targets = np.empty(d, dtype=np.int64)
        if n_biased:
            targets[:n_biased] = gen.choice(n, size=n_biased, p=popularity)
        if d - n_biased:
            targets[n_biased:] = gen.integers(0, n, size=d - n_biased)
        for t in targets:
            if int(t) != v:
                src.append(v)
                dst.append(int(t))
    return _first_occurrences(src, dst)


def zipf_profile_entries_reference(n_users, n_topics, mean_topics, popularity, gen):
    """``zipf_profiles``'s ``(user, topic id, weight)`` entries."""
    entries = []
    extra = gen.poisson(max(mean_topics - 1.0, 0.0), size=n_users)
    for user in range(n_users):
        n_chosen = int(min(1 + extra[user], n_topics))
        chosen = gen.choice(n_topics, size=n_chosen, replace=False, p=popularity)
        weights = gen.exponential(1.0, size=n_chosen)
        weights /= weights.sum()
        entries += [(user, int(t), float(w)) for t, w in zip(chosen, weights)]
    return entries


# ----------------------------------------------------------------------
# The scalar reverse samplers: one root at a time, one coin per reached
# in-edge (IC) or one uniform per visited vertex (LT).  They share only
# the graph's CSR arrays with ``propagation/kernels.py``, so they are the
# statistical references the batched samplers are checked against (the
# two consume the RNG stream in different orders: equivalence is in
# distribution).
# ----------------------------------------------------------------------
def ic_rr_set_reference(graph, root, gen):
    """IC reverse BFS from ``root``, keeping each reached in-edge with
    ``p(e)``; the sorted int64 RR set."""
    graph._check_vertex(root)
    in_ptr, in_src, in_prob = graph.in_ptr, graph.in_src, graph.in_prob
    visited = {root}
    frontier = [root]
    while frontier:
        next_frontier = []
        for x in frontier:
            start, stop = in_ptr[x], in_ptr[x + 1]
            coins = gen.random(stop - start) < in_prob[start:stop]
            for u in in_src[start:stop][coins].tolist():
                if u not in visited:
                    visited.add(u)
                    next_frontier.append(u)
        frontier = next_frontier
    return np.array(sorted(visited), dtype=np.int64)


def lt_rr_set_reference(graph, weights, root, gen):
    """LT backward walk from ``root``: each visited vertex keeps at most
    one in-edge, ``(u, x)`` with probability ``weights`` aligned with the
    in-CSR; stops on a dead draw or a revisit.  The sorted int64 RR set."""
    graph._check_vertex(root)
    in_ptr, in_src = graph.in_ptr, graph.in_src
    visited = {root}
    x = root
    while in_ptr[x] < in_ptr[x + 1]:
        draw = gen.random()
        acc, chosen = 0.0, -1
        for idx in range(in_ptr[x], in_ptr[x + 1]):
            acc += weights[idx]
            if draw < acc:
                chosen = int(in_src[idx])
                break
        if chosen < 0 or chosen in visited:
            break
        visited.add(chosen)
        x = chosen
    return np.array(sorted(visited), dtype=np.int64)
