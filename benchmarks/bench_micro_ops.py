"""Micro-benchmarks for the hot paths (proper pytest-benchmark loops).

Not a paper table — these measure the primitives whose costs the paper's
architecture trades against each other: online RR sampling (what WRIS
pays per query) versus decode-from-disk (what the indexes pay), greedy
coverage, codec throughput, and paged reads.
"""

import numpy as np
import pytest

from repro.core.coverage import CoverageInstance, greedy_max_coverage
from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder, invert_csr
from repro.core.sampler import sample_uniform_roots
from repro.core.theta import ThetaPolicy
from repro.graph.generators import twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.storage.compression import Codec, StreamDecoder, encode_stream
from repro.storage.pager import BufferPool, PagedFile
from repro.storage.records import InvertedListsRecord, RRSetsRecord


@pytest.fixture(scope="module")
def model():
    return IndependentCascade(twitter_like(2000, avg_degree=12, rng=77))


@pytest.fixture(scope="module")
def lt_model():
    return LinearThreshold(twitter_like(2000, avg_degree=12, rng=77), weight_rng=7)


@pytest.fixture(scope="module")
def rr_sets(model):
    rng = np.random.default_rng(78)
    roots = sample_uniform_roots(model.graph.n, 500, rng)
    return model.sample_rr_sets(roots, rng)


def test_online_rr_sampling_throughput(model, benchmark):
    """What WRIS pays per query, per 100 RR sets (batched fast path)."""
    rng = np.random.default_rng(79)
    roots = sample_uniform_roots(model.graph.n, 100, rng)

    benchmark(lambda: model.sample_rr_sets(roots, rng))


#: One keyword's offline sampling pass at the default-scale θ cap — the
#: workload Algorithm 1 pays per keyword.
_BATCH_THETA = 1200


def test_rr_sampling_batched(model, benchmark):
    """IC's batched multi-root reverse BFS on one keyword's θ=1200 pass."""
    rng = np.random.default_rng(83)
    roots = sample_uniform_roots(model.graph.n, _BATCH_THETA, rng)

    benchmark(lambda: model.sample_rr_sets(roots, rng))


def test_lt_sampling_batched(lt_model, benchmark):
    """LT's batched single-pick reverse walk on the same θ=1200 workload."""
    rng = np.random.default_rng(84)
    roots = sample_uniform_roots(lt_model.graph.n, _BATCH_THETA, rng)

    benchmark(lambda: lt_model.sample_rr_sets(roots, rng))


@pytest.fixture(scope="module")
def irr_index_path(tmp_path_factory):
    """A small IRR index over a synthetic world (paid once per session)."""
    model = IndependentCascade(twitter_like(1000, avg_degree=10, rng=91))
    topics = TopicSpace.default(12)
    profiles = zipf_profiles(model.graph.n, topics, rng=92)
    policy = ThetaPolicy(epsilon=0.5, K=50, cap=2000)
    path = str(tmp_path_factory.mktemp("irr_bench") / "index.irr")
    IRRIndexBuilder(model, profiles, policy=policy, delta=50, rng=93).build(path)
    return path


#: The default IRR benchmark workload: single- and multi-keyword queries
#: at mixed Q.k, the same mix the BENCH_pr2.json latency numbers use.
_IRR_QUERIES = (
    KBTIMQuery(["music"], 10),
    KBTIMQuery(["music", "book"], 10),
    KBTIMQuery(["sport", "book"], 25),
    KBTIMQuery(["music", "book", "sport"], 10),
)


def test_irr_query_latency_warm(irr_index_path, benchmark):
    """NRA query latency with the decoded-partition memo warm.

    What a long-lived reader pays per query once the hot partitions'
    decodes are memoised (reads still hit the pager every time).
    """
    with IRRIndex(irr_index_path) as index:
        for query in _IRR_QUERIES:  # prime the decode memo
            index.query(query)

        benchmark(lambda: [index.query(q) for q in _IRR_QUERIES])


#: The widest query the repo benchmark's Zipf stream draws (6 keywords,
#: k = 50; bench/queries.py).  Its ratio to the 1-3 keyword mix above is
#: the keyword fan-out: one cover pass per pick keeps the per-pick cost
#: independent of |Q.T|, so the extra time should be the extra loads.
_IRR_WIDE_QUERY = KBTIMQuery(
    ["music", "book", "sport", "software", "travel", "food"], 50
)


def test_irr_query_latency_warm_six_keywords(irr_index_path, benchmark):
    """One 6-keyword, k = 50 NRA query with the decode memo warm."""
    with IRRIndex(irr_index_path) as index:
        index.query(_IRR_WIDE_QUERY)  # prime the decode memo

        benchmark(lambda: index.query(_IRR_WIDE_QUERY))


def test_irr_query_latency_cold_decode(irr_index_path, benchmark):
    """NRA query latency with the decode memo disabled (capacity 0).

    The constructor-parameterised cache size sweeps cold behaviour
    without monkeypatching: every partition load pays its full decode.
    """
    with IRRIndex(irr_index_path, decode_cache_partitions=0) as index:
        benchmark(lambda: [index.query(q) for q in _IRR_QUERIES])


@pytest.fixture(scope="module")
def keyword_csr(rr_sets, model):
    """One keyword's block in the writers' input form: the 500 RR sets
    as ``(ptr, vertices)`` and their inversion ``(keys, ptr, set ids)``."""
    return (rr_sets.ptr, rr_sets.vertices), invert_csr(rr_sets)


def test_rr_record_decode_throughput(keyword_csr, benchmark):
    """What the RR index pays per query for the same 500 sets: the
    columnar decode of the record's payload (``RRIndex.decode_block``'s
    call)."""
    record = RRSetsRecord.encode(*keyword_csr[0], Codec.PFOR)
    n_sets, _group, payload_len, start = RRSetsRecord.read_header(record)
    payload = record[start : start + payload_len]

    benchmark(lambda: RRSetsRecord.decode_prefix_csr(payload, n_sets))


def test_inverted_record_decode_throughput(keyword_csr, benchmark):
    """The other half of a cold keyword: its ``L_w`` record."""
    record = InvertedListsRecord.encode(*keyword_csr[1], Codec.PFOR)

    benchmark(lambda: InvertedListsRecord.decode_csr(record))


def test_block_decode(keyword_csr, benchmark):
    """Both records of that keyword through one decoding session — what a
    ``BlockCache`` miss pays (``RRIndex.decode_block``'s body); compare
    with the sum of the two single-record benchmarks above."""
    record = RRSetsRecord.encode(*keyword_csr[0], Codec.PFOR)
    n_sets, _group, payload_len, start = RRSetsRecord.read_header(record)
    payload = record[start : start + payload_len]
    inverted = InvertedListsRecord.encode(*keyword_csr[1], Codec.PFOR)

    def decode():
        decoder = StreamDecoder()
        rr_sets = RRSetsRecord.queue_prefix(decoder, payload, n_sets)
        lists = InvertedListsRecord.queue(decoder, inverted)
        streams = decoder.finish()
        return rr_sets(streams), lists(streams)

    benchmark(decode)


@pytest.mark.parametrize("record", ["rr", "inverted"])
def test_record_encode(record, keyword_csr, benchmark):
    """What the offline build pays per keyword and record."""
    if record == "rr":
        benchmark(lambda: RRSetsRecord.encode(*keyword_csr[0], Codec.PFOR))
    else:
        benchmark(lambda: InvertedListsRecord.encode(*keyword_csr[1], Codec.PFOR))


@pytest.fixture(scope="module")
def rr_index_path(tmp_path_factory):
    """A small RR index over the same world as the IRR bench fixture."""
    model = IndependentCascade(twitter_like(1000, avg_degree=10, rng=91))
    topics = TopicSpace.default(12)
    profiles = zipf_profiles(model.graph.n, topics, rng=92)
    policy = ThetaPolicy(epsilon=0.5, K=50, cap=2000)
    path = str(tmp_path_factory.mktemp("rr_bench") / "index.rr")
    RRIndexBuilder(model, profiles, policy=policy, rng=93).build(path)
    return path


def test_rr_query_latency_cold_uncached(rr_index_path, benchmark):
    """RR query latency with the prefix cache disabled (capacity 0).

    Every query re-reads and re-decodes its keyword blocks — the cold
    decode-per-query behaviour the hot-prefix cache removes.
    """
    with RRIndex(rr_index_path, prefix_cache_keywords=0) as index:
        benchmark(lambda: [index.query(q) for q in _IRR_QUERIES])


def test_rr_query_latency_prefix_cached(rr_index_path, benchmark):
    """RR query latency with the decoded-prefix cache warm.

    The same query mix served by slicing cached keyword prefixes; the
    ratio against :func:`test_rr_query_latency_cold_uncached` is the
    hot-prefix-cache speedup BENCH_pr3.json records.
    """
    with RRIndex(rr_index_path) as index:
        for query in _IRR_QUERIES:  # prime the prefix cache
            index.query(query)

        benchmark(lambda: [index.query(q) for q in _IRR_QUERIES])


@pytest.mark.parametrize(
    "n_sets, k",
    [
        pytest.param(500, 20, id="query-size"),
        pytest.param(100_000, 50, id="offline-size"),
    ],
)
def test_greedy_coverage(n_sets, k, model, benchmark):
    """The greedy kernel at the two sizes it runs at.

    ``query-size`` is what one warm query of the repo benchmark hands it
    (~500 sets); ``offline-size`` (100 k sets, > 200 k incidences) is what
    ``ris.py`` / ``wris.py`` / ``estimation.py`` hand it.  Both stay so a
    kernel tuned on the first that re-counts every live incidence per
    pick — O(k·Σ|R|), measured 20x slower on the second — cannot hide.
    """
    rng = np.random.default_rng(78)
    roots = sample_uniform_roots(model.graph.n, n_sets, rng)
    instance = CoverageInstance(model.graph.n, model.sample_rr_sets(roots, rng))

    benchmark(lambda: greedy_max_coverage(instance, k))


def test_coverage_instance_build(rr_sets, model, benchmark):
    """Flat-CSR instance construction (argsort+bincount inversion)."""
    benchmark(lambda: CoverageInstance(model.graph.n, rr_sets))


def _gap_stream(n_lists, per_list, seed):
    """The gaps stream of ``n_lists`` sorted id lists of ``per_list`` ids
    below 4 000: a first id, then differences, list after list."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.integers(0, 4000, size=(n_lists, per_list)), axis=1)
    ids += np.arange(per_list)  # strictly increasing
    return np.diff(ids, prepend=0, axis=1).astype(np.uint64).ravel()


#: The three stream shapes Table 4's two codecs (RAW, PFOR) run at: one
#: cold keyword's gaps at the size the repo benchmark's fixture has (676
#: ids), one IRR partition (δ = 100 lists), and one record long enough
#: that the unpack works in bounded slices.
_STREAM_SHAPES = [
    pytest.param(169, 4, id="keyword-676"),
    pytest.param(100, 4, id="partition-100-lists"),
    pytest.param(10_000, 5, id="record-50000"),
]


@pytest.mark.parametrize("n_lists, per_list", _STREAM_SHAPES)
@pytest.mark.parametrize("codec", [Codec.RAW, Codec.PFOR])
def test_codec_encode(codec, n_lists, per_list, benchmark):
    gaps = _gap_stream(n_lists, per_list, 80)

    benchmark(lambda: encode_stream(gaps, codec))


@pytest.mark.parametrize("n_lists, per_list", _STREAM_SHAPES)
@pytest.mark.parametrize("codec", [Codec.RAW, Codec.PFOR])
def test_codec_decode(codec, n_lists, per_list, benchmark):
    gaps = _gap_stream(n_lists, per_list, 81)
    blob = encode_stream(gaps, codec)

    def decode():
        decoder = StreamDecoder(blob)
        decoder.read(codec.value, len(gaps), 0)
        return decoder.finish()

    assert np.array_equal(decode()[0], gaps)
    benchmark(decode)


def test_paged_random_reads(tmp_path_factory, benchmark):
    path = tmp_path_factory.mktemp("pager") / "blob.bin"
    path.write_bytes(b"\xab" * (1 << 20))
    rng = np.random.default_rng(82)
    offsets = rng.integers(0, (1 << 20) - 256, size=200)

    def read_all():
        pool = BufferPool(32)
        with PagedFile(path, pool=pool) as f:
            for offset in offsets:
                f.read(int(offset), 256)

    benchmark(read_all)
