"""One reader contract under both indexes (repro.core.catalog).

``RRIndex`` and ``IRRIndex`` stand on one reader core — open the
container, parse the catalog, plan a query, close — so everything that
core promises is asserted once, for both, on indexes built from one
sample table.  Also here: what a *failed* open must release, the byte
stability of the two writers, and the catalog parser's own guards.
"""

import hashlib
import json
import os
import re
import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core import verify_index
from repro.core.catalog import (
    FORMAT_VERSION,
    IRR_FORMAT,
    RR_FORMAT,
    open_index,
    read_catalog,
)
from repro.core.irr_index import IRRIndex, IRRIndexBuilder, write_irr_index
from repro.core.offline import KeywordTable
from repro.core.process_pool import SupervisedServerPool
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder, write_rr_index
from repro.core.server import KBTIMServer
from repro.core.theta import ThetaPolicy
from repro.errors import CorruptIndexError, IndexError_, QueryError
from repro.graph.generators import twitter_like
from repro.profiles.generators import zipf_profiles
from repro.profiles.topics import TopicSpace
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.storage.compression import Codec
from repro.storage.segments import SegmentReader, SegmentWriter
from repro.utils.rrsets import FlatRRSets

READERS = {"rr": RRIndex, "irr": IRRIndex}
#: The option that makes either reader retain nothing between queries.
COLD = {"prefix_cache_keywords": 0}

QUERIES = [
    KBTIMQuery(("music",), 5),
    KBTIMQuery(("music", "book"), 8),
    KBTIMQuery(("sport", "book", "car"), 12),
]


@pytest.fixture(scope="module")
def paths(small_world, smoke_policy, tmp_path_factory):
    """``{kind: path}`` of an RR and an IRR index of one sample table."""
    _graph, _topics, profiles, model = small_world
    tmp = tmp_path_factory.mktemp("contract")
    built = {kind: str(tmp / f"index.{kind}") for kind in READERS}
    builder = RRIndexBuilder(model, profiles, policy=smoke_policy, rng=5)
    tables = builder.sample()
    builder.build(built["rr"], tables=tables)
    IRRIndexBuilder(model, profiles, policy=smoke_policy, delta=25, rng=5).build(
        built["irr"], tables=tables
    )
    return built


def rewritten(source, out, edit):
    """Copy an index file with ``edit(meta)`` applied to its parsed ``meta``
    document (``edit`` changes the dict in place)."""
    with SegmentReader(source) as reader, SegmentWriter(out) as writer:
        for name in reader.names():
            payload = reader.read(name)
            if name == "meta":
                meta = json.loads(payload)
                edit(meta)
                payload = json.dumps(meta).encode()
            writer.add(name, payload)
    return out


def relabelled(source, out, **fields):
    """Copy an index file with ``fields`` of its ``meta`` document set."""
    return rewritten(source, out, lambda meta: meta.update(fields))


@pytest.fixture(scope="module")
def missing_car(paths, tmp_path_factory):
    """An RR file whose catalog lists ``car`` but whose ``rr/car`` is gone."""
    out = str(tmp_path_factory.mktemp("missing") / "no-car.rr")
    with SegmentReader(paths["rr"]) as reader, SegmentWriter(out) as writer:
        for name in reader.names():
            if name != "rr/car":
                writer.add(name, reader.read(name))
    return out


class TestIndexReaderContract:
    @pytest.fixture(scope="class")
    def observed(self, paths):
        seen = {}
        for kind, reader in READERS.items():
            with reader(paths[kind]) as index:
                seen[kind] = {
                    "catalog": index.catalog,
                    "topic_names": index.topic_names,
                    "keywords": index.keywords(),
                    "scalars": (index.n_vertices, index.K, index.epsilon, index.codec),
                    "plans": [index.plan(query) for query in QUERIES],
                    "answers": [index.query(query) for query in QUERIES],
                }
        return seen

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_same_catalog_surface(self, kind, observed, small_world, smoke_policy):
        seen, reference = observed[kind], observed["rr"]
        for field in ("catalog", "topic_names", "keywords", "scalars"):
            assert seen[field] == reference[field], field
        graph, _topics, _profiles, _model = small_world
        assert seen["scalars"] == (
            graph.n, smoke_policy.K, smoke_policy.epsilon, Codec.PFOR
        )
        assert seen["keywords"] == sorted(seen["catalog"])
        assert seen["topic_names"] == {
            meta.topic_id: name for name, meta in seen["catalog"].items()
        }

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_same_plan(self, kind, observed):
        assert observed[kind]["plans"] == observed["rr"]["plans"]
        keywords, counts, phi_q = observed[kind]["plans"][1]
        assert keywords == ["music", "book"] and set(counts) == set(keywords)
        assert phi_q == pytest.approx(
            sum(observed[kind]["catalog"][kw].phi_w for kw in keywords)
        )

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_same_answers(self, kind, observed):
        """Theorem 3: equal seeds, seed scores and θ."""
        for got, want in zip(observed[kind]["answers"], observed["rr"]["answers"]):
            assert got.seeds == want.seeds
            assert got.marginal_coverages == want.marginal_coverages
            assert got.theta == want.theta
            assert got.phi_q == want.phi_q

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_bad_queries_fail_before_any_read(self, kind, paths):
        with READERS[kind](paths[kind]) as index:
            music = index.catalog["music"].topic_id
            absent = max(index.topic_names) + 1
            bad = [
                (KBTIMQuery(("music",), index.K + 1), QueryError),
                (KBTIMQuery((music, "music"), 2), QueryError),
                (KBTIMQuery(("music", "quantum"), 2), IndexError_),
                (KBTIMQuery(("music", absent), 2), IndexError_),
            ]
            before = index.stats.snapshot()
            for query, error in bad:
                for call in (index.plan, index.query):
                    with pytest.raises(error):
                        call(query)
            assert index.stats.delta(before).read_calls == 0

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_other_formats_file_is_rejected_by_name(self, kind, paths):
        other = "irr" if kind == "rr" else "rr"
        found = {"rr": RR_FORMAT, "irr": IRR_FORMAT}[other]
        with pytest.raises(CorruptIndexError, match=f"format='{found}'"):
            READERS[kind](paths[other])

    @pytest.mark.parametrize("config", ["cold", "default"])
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_repeating_a_query_reports_the_same_io(self, kind, config, paths):
        """What a query is charged must not depend on what the reader
        served before it — unless a cache absorbed the reads outright."""
        options = COLD if config == "cold" else {}
        query = QUERIES[1]
        with READERS[kind](paths[kind], **options) as index:
            costs = [index.query(query).stats.io for _ in range(3)]
        reads = [io.read_calls for io in costs]
        if (kind, config) == ("rr", "default"):
            # The block cache is meant to absorb repeats: cold once, then free.
            assert reads == [2 * len(query.keywords), 0, 0]
        else:
            assert reads[0] > 0 and reads == [reads[0]] * 3
            assert len({io.bytes_read for io in costs}) == 1

    def test_irr_reads_do_not_depend_on_the_caches(self, paths):
        """The IRR cache skips decodes, never reads: cold and warm readers
        report the same reads and bytes, and capacity 0 retains nothing."""
        query = QUERIES[2]
        with IRRIndex(paths["irr"], **COLD) as cold, IRRIndex(paths["irr"]) as warm:
            answer = warm.query(query)
            a, b = cold.query(query).stats.io, warm.query(query).stats.io
            assert (a.read_calls, a.bytes_read) == (b.read_calls, b.bytes_read)
            assert len(cold.cache) == 0
            assert len(warm.cache) == len(query.keywords)
            # The warm entries hold every partition the query loaded.
            held = sum(len(warm.lookup(kw, 1)[0][1]) for kw in query.keywords)
            assert held == answer.stats.partitions_loaded > len(query.keywords)

    def test_a_load_unit_is_one_decoding_session(self, paths, monkeypatch):
        """The records a miss or a partition load reads go through one
        ``StreamDecoder`` (one ``finish``): RR's two, IRR's one segment
        (three records in partition 0, which holds ``IP_w``, two after);
        what comes out equals the records decoded alone."""
        from repro.storage import compression
        from repro.storage.records import InvertedListsRecord, RRSetsRecord

        finishes = []
        finish = compression.StreamDecoder.finish
        monkeypatch.setattr(
            compression.StreamDecoder,
            "finish",
            lambda self: finishes.append(len(self._records)) or finish(self),
        )
        with RRIndex(paths["rr"], **COLD) as index:
            n_sets = index.catalog["music"].n_sets
            small = index.decode_block("music", n_sets // 2)
            full = index.decode_block("music", n_sets)
            assert finishes == [2, 2]
            for name in ("set_ptr", "set_vertices", "inv_vertices", "inv_sets"):
                clipped = full.clip_prefix(n_sets // 2)
                assert np.array_equal(getattr(small, name), getattr(clipped, name))
            _group, payload_len, start, _offsets = index._headers["music"]
            payload = index._reader.read_range_view("rr/music", start, payload_len)
            set_ptr, set_vertices = RRSetsRecord.decode_prefix_csr(payload, n_sets)
            keys, ptr, flat = InvertedListsRecord.decode_csr(
                index._reader.read_view("inv/music")
            )
            assert np.array_equal(full.set_ptr, set_ptr)
            assert np.array_equal(full.set_vertices, set_vertices)
            assert np.array_equal(full.inv_vertices, keys.repeat(np.diff(ptr)))
            assert np.array_equal(full.inv_sets, flat)
        del finishes[:]
        with IRRIndex(paths["irr"], **COLD) as index:
            ip, partitions = index.lookup("music", 1)[0]
            first = partitions[0]
            later, hit = index._load_partition("music", partitions, 1)
            assert not hit
            assert finishes == [3, 2]
            alone = [
                array
                for p, count in ((0, 3), (1, 2))
                for record in InvertedListsRecord.split(
                    index._reader.read_view(f"irr/music/{p}"), count
                )
                for array in InvertedListsRecord.decode_csr(record)
            ]
            ip_keys, ip_ptr, ip_flat = alone[:3]
            assert np.array_equal(ip[ip_keys], ip_flat[ip_ptr[:-1]])
            assert np.count_nonzero(ip != np.iinfo(np.int64).max) == len(ip_keys)
            decoded = (ip, *first, *later)
            assert len(decoded) == len(alone) - 2 == 13
            for ours, theirs in zip(decoded[1:], alone[3:]):
                assert np.array_equal(ours, theirs)
            assert not any(array.flags.writeable for array in decoded)

    def test_irr_server_survives_concurrent_queries_on_tiny_caches(self, paths):
        """Eight threads share one server whose reader's cache holds two
        keywords, so lookups keep evicting; answers, each answer's reads
        and the I/O totals stay exact."""
        with IRRIndex(paths["irr"]) as reference:
            expected = [reference.query(query) for query in QUERIES]
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            index = IRRIndex(paths["irr"])
            with KBTIMServer(index, cache_keywords=2) as server:
                before = index.stats.snapshot()
                charged = []

                def worker():
                    try:
                        for _ in range(6):
                            for query, want in zip(QUERIES, expected):
                                got = server.query(query)
                                assert got.seeds == want.seeds
                                assert got.marginal_coverages == want.marginal_coverages
                                assert got.stats.io.read_calls == want.stats.io.read_calls
                                charged.append(want.stats.io.read_calls)
                    except BaseException as exc:  # surfaced below
                        failures.append(exc)

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures, failures
                assert index.stats.delta(before).read_calls == sum(charged)
                assert len(index.cache) <= 2
        finally:
            sys.setswitchinterval(interval)


def _flip(path, out, offset):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[offset] ^= 0xFF
    with open(out, "wb") as fh:
        fh.write(bytes(data))
    return out


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to count descriptors"
)
class TestFailedOpensReleaseTheFile:
    """A constructor that raises owns nothing: the exception's traceback
    keeps the half-built reader alive, so its file and map must be closed
    before the error propagates, not when it is collected."""

    @pytest.fixture(scope="class")
    def broken(self, paths, missing_car, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("broken")
        size = os.path.getsize(paths["rr"])
        return {
            "wrong format": (RRIndex, paths["irr"], "not an RR index"),
            "wrong format (irr)": (IRRIndex, paths["rr"], "not an IRR index"),
            "missing segment": (RRIndex, missing_car, "missing segment 'rr/car'"),
            "bad magic": (RRIndex, _flip(paths["rr"], str(tmp / "m.rr"), 0), "bad magic"),
            # The last TOC byte sits right before the 12-byte footer.
            "toc checksum": (
                SegmentReader,
                _flip(paths["rr"], str(tmp / "t.rr"), size - 13),
                "TOC checksum mismatch",
            ),
        }

    @pytest.mark.parametrize(
        "case",
        ["wrong format", "wrong format (irr)", "missing segment", "bad magic", "toc checksum"],
    )
    def test_five_failed_opens_leave_no_descriptor(self, case, broken):
        opener, path, message = broken[case]
        kept = []
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with pytest.raises(CorruptIndexError, match=message) as caught:
                opener(path)
            kept.append(caught.value)  # keeps traceback -> frame -> reader
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(kept) == 5

    @pytest.mark.parametrize("command", ["inspect", "query"])
    def test_cli_reports_the_real_error(self, command, missing_car, capsys):
        """The reader class comes from the catalog's format, so a broken RR
        file is reported as what it is, not as "not an IRR index"."""
        extra = ["--keywords", "music", "--k", "2"] if command == "query" else []
        assert main([command, "--index", missing_car, *extra]) == 1
        err = capsys.readouterr().err
        assert "missing segment 'rr/car'" in err
        assert "not an IRR index" not in err


class TestCatalogParser:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_read_catalog_is_what_the_readers_expose(self, kind, paths):
        with SegmentReader(paths[kind]) as reader:
            parsed = read_catalog(reader)
        with READERS[kind](paths[kind]) as index:
            assert parsed.format == index.FORMAT
            assert parsed.keywords == index.catalog
            assert parsed.topic_names == index.topic_names
            assert (parsed.delta is None) == (kind == "rr")
        assert set(parsed.partitions) == (
            set(parsed.keywords) if kind == "irr" else set()
        )

    def test_unknown_format_is_rejected_everywhere(self, tmp_path, capsys):
        path = str(tmp_path / "other.idx")
        with SegmentWriter(path) as writer:
            writer.add("meta", json.dumps({"format": "something-else"}).encode())
        with SegmentReader(path) as reader:
            with pytest.raises(CorruptIndexError, match="unknown index format"):
                read_catalog(reader)
        with pytest.raises(CorruptIndexError, match="unknown index format"):
            verify_index(path)
        assert main(["inspect", "--index", path]) == 1
        assert "unknown index format 'something-else'" in capsys.readouterr().err


class TestFormatVersionIsCheckedAtOpen:
    """The catalog's ``version`` used to be written and never read.  No
    older reader is kept (every index is rebuilt from its sample tables),
    so a file of another version must fail when it is opened — not decode
    garbage on the first query."""

    #: The retired versions: 1, and 2, whose IRR files stored ``IP_w``,
    #: ``IR^p_w`` and ``IL^p_w`` as segments of their own.
    RETIRED = (1, 2)

    @pytest.fixture(scope="class")
    def stale(self, paths, tmp_path_factory):
        """``{(kind, version): path}`` of the two indexes re-labelled
        with each retired version."""
        tmp = tmp_path_factory.mktemp("stale")
        for path in paths.values():
            with SegmentReader(path) as reader:
                assert json.loads(reader.read("meta"))["version"] == FORMAT_VERSION == 3
        return {
            (kind, version): relabelled(
                path, str(tmp / f"v{version}.{kind}"), version=version
            )
            for kind, path in paths.items()
            for version in self.RETIRED
        }

    @staticmethod
    def message(version):
        return f"index format version {version}, .*rebuild the index with this release"

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_readers_reject_another_version(self, kind, stale):
        for version in self.RETIRED:
            path = stale[kind, version]
            for opener in (READERS[kind], verify_index):
                message = self.message(version)
                with pytest.raises(CorruptIndexError, match=message) as caught:
                    opener(path)
                assert path in str(caught.value)

    def test_a_missing_version_is_rejected_too(self, tmp_path):
        path = str(tmp_path / "unversioned.rr")
        with SegmentWriter(path) as writer:
            writer.add("meta", json.dumps({"format": RR_FORMAT}).encode())
        with pytest.raises(CorruptIndexError, match="index format version None"):
            RRIndex(path)

    def test_pool_rejects_another_version_in_the_parent(self, stale):
        """The pool reads the catalog before it forks a worker."""
        for kind, version in sorted(stale):
            with pytest.raises(CorruptIndexError, match=self.message(version)):
                SupervisedServerPool(stale[kind, version], n_workers=1)

    def test_cli_names_the_version(self, paths, stale, capsys):
        assert main(["inspect", "--index", paths["rr"]]) == 0
        assert f"RR index (format v{FORMAT_VERSION})" in capsys.readouterr().out
        for kind, version in sorted(stale):
            path = stale[kind, version]
            query = ["query", "--index", path, "--keywords", "music", "--k", "3"]
            for argv in (["inspect", "--index", path], query):
                assert main(argv) == 1
                assert re.search(self.message(version), capsys.readouterr().err)


class TestCatalogCodecIsCheckedAtOpen:
    """A catalog that names a codec this release does not read (tag 1
    was a retired LEB128 codec) fails at open with the typed error, as a
    stale version does — not with ``Codec``'s own ``ValueError``."""

    @pytest.fixture(scope="class")
    def relabelled_codec(self, paths, tmp_path_factory):
        """``{(kind, codec): path}`` of both indexes re-labelled."""
        tmp = tmp_path_factory.mktemp("codec")
        return {
            (kind, codec): relabelled(path, str(tmp / f"c{codec}.{kind}"), codec=codec)
            for kind, path in paths.items()
            for codec in (1, 9)
        }

    @pytest.mark.parametrize("codec", [1, 9])
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_readers_reject_an_unknown_codec(self, kind, codec, relabelled_codec):
        path = relabelled_codec[kind, codec]
        message = f"index codec {codec}, .*rebuild the index with this release"
        for opener in (READERS[kind], open_index, verify_index):
            with pytest.raises(CorruptIndexError, match=message) as caught:
                opener(path)
            assert path in str(caught.value)

    def test_pool_and_cli_reject_an_unknown_codec(self, relabelled_codec, capsys):
        with pytest.raises(CorruptIndexError, match="index codec 9"):
            SupervisedServerPool(relabelled_codec["rr", 9], n_workers=1)
        assert main(["inspect", "--index", relabelled_codec["irr", 1]]) == 1
        assert "index codec 1" in capsys.readouterr().err


#: Every field of the ``meta`` document a reader needs, per kind, as a
#: path into the document: top-level fields, then one keyword entry's.
CATALOG_FIELDS = {
    kind: [(field,) for field in ("keywords", "n_vertices", "epsilon", "K", *header)]
    + [
        ("keywords", "music", field)
        for field in (
            "topic_id", "theta", "tf_sum", "idf", "phi_w", "n_sets", *entry
        )
    ]
    for kind, header, entry in (
        ("rr", (), ()),
        (
            "irr",
            ("delta",),
            ("n_partitions", "partition_first_lens", "partition_set_counts"),
        ),
    )
}


#: The ``value`` of :func:`set_field` that deletes the field.
DROP = object()


def set_field(path, value):
    """An ``edit`` for :func:`rewritten`: set the field at ``path`` to
    ``value``, or delete it when ``value`` is :data:`DROP`."""

    def edit(meta):
        *parents, last = path
        for key in parents:
            meta = meta[key]
        if value is DROP:
            del meta[last]
        else:
            meta[last] = value

    return edit


class TestCatalogFieldsAreChecked:
    """A ``meta`` document that is not a JSON object, lacks a field or
    holds one of the wrong type fails at open with the typed error naming
    the file and the field — through the reader, ``open_index``,
    ``verify_index`` and ``repro inspect`` (one ``error:`` line, exit 1)
    — not with a ``KeyError`` or ``AttributeError`` from the parse."""

    @staticmethod
    def assert_rejected(kind, path, message, capsys):
        for opener in (READERS[kind], open_index, verify_index):
            with pytest.raises(CorruptIndexError) as caught:
                opener(path)
            assert str(caught.value) == f"{path}: {message}"
        assert main(["inspect", "--index", path]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]

    @pytest.mark.parametrize(
        "kind, field",
        [
            pytest.param(kind, field, id=f"{kind}-{'.'.join(field)}")
            for kind in sorted(CATALOG_FIELDS)
            for field in CATALOG_FIELDS[kind]
        ],
    )
    def test_a_missing_field_is_named(self, kind, field, paths, tmp_path, capsys):
        edit = set_field(field, DROP)
        path = rewritten(paths[kind], str(tmp_path / f"x.{kind}"), edit)
        message = f"index catalog field {'.'.join(field)} is missing"
        self.assert_rejected(kind, path, message, capsys)

    @pytest.mark.parametrize(
        "kind, field, value, expected",
        [
            pytest.param(kind, field, value, expected, id=f"{kind}-{'.'.join(field)}")
            for kind, field, value, expected in (
                ("rr", ("n_vertices",), "400", "int: '400'"),
                ("rr", ("K",), True, "int: True"),
                ("irr", ("epsilon",), None, "float: None"),
                ("irr", ("delta",), 2.5, "int: 2.5"),
                ("rr", ("keywords",), ["music"], "dict: ['music']"),
                ("irr", ("keywords", "music"), 3, "dict: 3"),
                ("rr", ("keywords", "music", "theta"), 1.5, "int: 1.5"),
                ("irr", ("keywords", "music", "tf_sum"), "x", "float: 'x'"),
                (
                    "irr",
                    ("keywords", "music", "partition_first_lens"),
                    ["a"],
                    "list: ['a']",
                ),
            )
        ],
    )
    def test_a_mistyped_field_is_named(
        self, kind, field, value, expected, paths, tmp_path, capsys
    ):
        edit = set_field(field, value)
        path = rewritten(paths[kind], str(tmp_path / f"x.{kind}"), edit)
        message = f"index catalog field {'.'.join(field)} is not {expected}"
        self.assert_rejected(kind, path, message, capsys)

    def test_a_partition_table_of_the_wrong_length_is_named(
        self, paths, tmp_path, capsys
    ):
        """Unchecked, the file opens and its first query fails with an
        ``IndexError`` from the NRA unseen bound."""
        field = ("keywords", "music", "partition_first_lens")
        with SegmentReader(paths["irr"]) as reader:
            entry = json.loads(reader.read("meta"))["keywords"]["music"]
        n_partitions, first_lens = entry["n_partitions"], entry["partition_first_lens"]
        assert n_partitions == len(first_lens) > 1
        edit = set_field(field, first_lens[:1])
        path = rewritten(paths["irr"], str(tmp_path / "x.irr"), edit)
        message = (
            "index catalog field keywords.music.partition_first_lens has "
            f"1 entries for {n_partitions} partitions"
        )
        self.assert_rejected("irr", path, message, capsys)

    @pytest.mark.parametrize(
        "payload",
        [b"[1, 2]", b'"rr-index"', b"{not json", b"\xff\xfe"],
        ids=["array", "string", "not-json", "not-utf8"],
    )
    def test_a_catalog_that_is_not_an_object_is_rejected(
        self, payload, tmp_path, capsys
    ):
        path = str(tmp_path / "x.rr")
        with SegmentWriter(path) as writer:
            writer.add("meta", payload)
        self.assert_rejected("rr", path, "index catalog is not a JSON object", capsys)


# ----------------------------------------------------------------------
# writers: byte-identical files
# ----------------------------------------------------------------------
N_VERTICES = 400


def pinned_tables():
    """Three hand-made sample tables — no RNG, so the bytes below depend
    on the writers and encoders alone, not on a numpy version's streams.

    Every 37th set is long (crosses a 128-id PFoR block and ends in an
    outlier gap, i.e. an exception).  Each table's literal list of sets
    is wrapped once into ``FlatRRSets``, the samplers' form.
    """
    tables = {}
    for topic_id, (name, n_sets) in enumerate(
        (("music", 180), ("book", 90), ("car", 41))
    ):
        rr_sets = []
        for i in range(n_sets):
            if i % 37 == 5:
                members = set(range(140)) | {399 - topic_id}
            else:
                size = 1 + (i * 5 + topic_id) % 9
                members = {
                    (i * 31 + j * j * 7 + topic_id * 3) % N_VERTICES
                    for j in range(size)
                }
            rr_sets.append(sorted(members))
        tables[name] = KeywordTable(
            name=name,
            topic_id=topic_id,
            theta=n_sets,
            tf_sum=12.5 + topic_id,
            idf=1.0 + topic_id / 8,
            phi_w=(12.5 + topic_id) * (1.0 + topic_id / 8),
            opt_lower_bound=3.0,
            rr_sets=FlatRRSets.from_sets(rr_sets),
        )
    return tables


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestWritersAreByteStable:
    """SHA-256 of the files the two writers produce from
    :func:`pinned_tables`, re-pinned when the records went columnar
    (format version 2) and when an IRR load unit became one segment
    (version 3: the RR files changed only in the catalog's ``version``
    and its checksums).  A change here is a format change.
    ``PINNED`` is the PFOR build, ``PINNED_RAW`` the RAW build."""

    PINNED = {
        "rr": "0c5bb69a5d06911e67aa3122081759b002d760bd74d2c0e66817a052e8025820",
        "irr": "8f90433272bee3a35304cec6077fcffe67967d21ef2d7f4b3992fee87043a21a",
    }
    PINNED_RAW = {
        "rr": "de9ac9994ef6272edf1425fbbc27ae0d734d750d6306e7888350cc4c69c782c0",
        "irr": "24e54b71d8f02069c69eab5bde623232c10b75ccbcb23354076e4271adb95319",
    }

    @staticmethod
    def _write(tmp, codec):
        options = {
            "n_vertices": N_VERTICES,
            "policy": ThetaPolicy(epsilon=0.5, K=20, cap=180),
            "codec": codec,
        }
        tables = pinned_tables()
        write_rr_index(str(tmp / "p.rr"), tables, **options)
        write_irr_index(str(tmp / "p.irr"), tables, delta=25, **options)
        return {kind: str(tmp / f"p.{kind}") for kind in READERS}

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        return self._write(tmp_path_factory.mktemp("pinned"), Codec.PFOR)

    @pytest.fixture(scope="class")
    def written_raw(self, tmp_path_factory):
        return self._write(tmp_path_factory.mktemp("pinned-raw"), Codec.RAW)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_file_bytes_are_pinned(self, kind, written):
        assert sha256(written[kind]) == self.PINNED[kind]

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_raw_file_bytes_are_pinned(self, kind, written_raw):
        assert sha256(written_raw[kind]) == self.PINNED_RAW[kind]

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_raw_files_verify_and_answer_like_pfor(self, kind, written, written_raw):
        """Table 4's two variants of one index hold the same sets."""
        assert verify_index(written_raw[kind]).rr_sets_checked == 180 + 90 + 41
        query = KBTIMQuery(("music", "book", "car"), 6)
        reader = READERS[kind]
        with reader(written[kind]) as pfor, reader(written_raw[kind]) as raw:
            assert raw.codec is Codec.RAW and pfor.codec is Codec.PFOR
            assert raw.query(query).seeds == pfor.query(query).seeds
            assert raw.query(query).marginal_coverages == (
                pfor.query(query).marginal_coverages
            )

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_pinned_files_verify_and_answer_alike(self, kind, written):
        assert verify_index(written[kind]).rr_sets_checked == 180 + 90 + 41
        query = KBTIMQuery(("music", "car"), 6)
        with RRIndex(written["rr"]) as rr, READERS[kind](written[kind]) as index:
            assert index.query(query).marginal_coverages == (
                rr.query(query).marginal_coverages
            )


# ----------------------------------------------------------------------
# sampled builds: the whole pipeline, seed to bytes
# ----------------------------------------------------------------------
def sampled_model(name):
    """One of the two models on a fixed 150-node graph: IC (Bernoulli
    kernel) or LT (single-pick kernel)."""
    graph = twitter_like(150, avg_degree=12, rng=71)
    if name == "IC":
        return graph, IndependentCascade(graph)
    return graph, LinearThreshold(graph, weight_rng=72)


class TestSampledBuildsArePinned:
    """SHA-256 of the RR and IRR files built end to end from one seed —
    roots, OPT estimation, θ, RR sets, both writers — with each table's
    ``(theta, opt_lower_bound)``.  Unlike :class:`TestWritersAreByteStable`
    this pins the samplers and the estimator too: a rewrite that draws
    from the RNG in another order, or re-groups a batch, moves it."""

    PINNED = {
        "IC": (
            "0bd27691caefed9e0c0f0483969f0712bb1063214378992abbe062bd64d5d00b",
            "c5dc47671e323eae45dde88b80b5e7a2552eb335496c1eadfbda7efc9354b10d",
            {
                "book": (2198, 1.9262552591011357),
                "journal": (2263, 2.745134353765253),
                "music": (2025, 2.452892498731756),
                "software": (2565, 2.779315114712135),
            },
        ),
        "LT": (
            "8b39e5ac5836045b92363fb9892ae7a16aed9be1e23d13e44800959f8d63ff35",
            "4ceb2c9c06ebd5ac6c09f9a0f31254731841e15d1bdbddec19add7340aa2a78f",
            {
                "book": (1973, 2.146398717284123),
                "journal": (2137, 2.906612845163209),
                "music": (1973, 2.5174423013299605),
                "software": (2137, 3.335178137654562),
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_sampled_build_is_pinned(self, name, tmp_path):
        graph, model = sampled_model(name)
        profiles = zipf_profiles(graph.n, TopicSpace.default(4), rng=73)
        policy = ThetaPolicy(epsilon=1.0, K=2, cap=None)
        builder = RRIndexBuilder(model, profiles, policy=policy, rng=74)
        tables = builder.sample()
        digests = []
        for kind, build in (
            ("rr", builder),
            ("irr", IRRIndexBuilder(model, profiles, policy=policy, delta=8)),
        ):
            path = str(tmp_path / f"s.{kind}")
            build.build(path, tables=tables)
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        observed = {
            kw: (t.theta, t.opt_lower_bound) for kw, t in sorted(tables.items())
        }
        assert (*digests, observed) == self.PINNED[name]
