"""Tests for the index integrity check (repro.core.verify_index)."""

import json

import pytest

from listform import encode_inverted_lists
from repro.core import verify_index
from repro.core.irr_index import IRRIndexBuilder
from repro.core.rr_index import RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.errors import CorruptIndexError
from repro.storage.records import InvertedListsRecord
from repro.storage.segments import SegmentReader, SegmentWriter


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(200, avg_degree=8, rng=81)
    profiles = zipf_profiles(graph.n, TopicSpace.default(6), rng=82)
    model = IndependentCascade(graph)
    policy = ThetaPolicy(epsilon=1.0, K=20, cap=120)
    tmp = tmp_path_factory.mktemp("maint")
    rr_path = str(tmp / "m.rr")
    irr_path = str(tmp / "m.irr")
    builder = RRIndexBuilder(model, profiles, policy=policy, rng=83)
    tables = builder.sample()
    builder.build(rr_path, tables=tables)
    IRRIndexBuilder(model, profiles, policy=policy, delta=15, rng=83).build(
        irr_path, tables=tables
    )
    return rr_path, irr_path


class TestVerifyIndex:
    def test_rr_index_verifies(self, built):
        rr_path, _ = built
        report = verify_index(rr_path)
        assert report.format == "rr-index"
        assert report.keywords_checked >= 1
        assert report.rr_sets_checked > 0
        assert "OK" in str(report)

    def test_irr_index_verifies(self, built):
        _, irr_path = built
        report = verify_index(irr_path)
        assert report.format == "irr-index"
        assert report.rr_sets_checked > 0

    def test_shallow_mode(self, built):
        rr_path, irr_path = built
        assert verify_index(rr_path, deep=False).rr_sets_checked == 0
        assert verify_index(irr_path, deep=False).rr_sets_checked == 0

    @pytest.mark.parametrize("deep", [True, False])
    @pytest.mark.parametrize(
        "kind,segment", [("rr", "inv/music"), ("irr", "irr/music/1")]
    )
    def test_flipped_byte_is_a_checksum_mismatch(
        self, kind, segment, deep, built, tmp_path
    ):
        """Shallow mode reads every segment too: a later IRR partition is
        never decoded there, but its CRC is checked."""
        source = built[0] if kind == "rr" else built[1]
        with SegmentReader(source) as reader:
            offset = reader.info(segment).offset
        data = bytearray(open(source, "rb").read())
        data[offset] ^= 0xFF
        broken = str(tmp_path / f"flipped.{kind}")
        open(broken, "wb").write(bytes(data))
        match = f"segment '{segment}' checksum mismatch"
        with pytest.raises(CorruptIndexError, match=match):
            verify_index(broken, deep=deep)

    def test_corruption_detected(self, built, tmp_path):
        rr_path, _ = built
        data = bytearray(open(rr_path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        broken = str(tmp_path / "broken.rr")
        open(broken, "wb").write(bytes(data))
        with pytest.raises(CorruptIndexError):
            verify_index(broken)


# ----------------------------------------------------------------------
# deep checks: CRC-valid files whose records disagree with each other
# ----------------------------------------------------------------------
def _lists(record):
    keys, ptr, flat = InvertedListsRecord.decode_csr(record)
    return [(int(k), flat[ptr[i] : ptr[i + 1]]) for i, k in enumerate(keys)]


def _records(name, payload):
    """The records of segment ``name``: an RR ``inv/<kw>`` is one; an IRR
    ``irr/<kw>/0`` holds ``IP_w``, ``IR`` and ``IL``, a later one ``IR``
    and ``IL``."""
    count = 1 if name.startswith("inv/") else 3 if name.endswith("/0") else 2
    return [bytes(record) for record in InvertedListsRecord.split(payload, count)]


def _edit_lists(name, edit, record=0):
    """A tampering that re-encodes record ``record`` of segment ``name``
    after ``edit(lists)``."""

    def tamper(segments):
        records = _records(name, segments[name])
        records[record] = encode_inverted_lists(edit(_lists(records[record])))
        segments[name] = b"".join(records)

    return tamper


def _shorten_longest(lists):
    victim = max(range(len(lists)), key=lambda i: len(lists[i][1]))
    lists[victim] = (lists[victim][0], lists[victim][1][:-1])
    return lists


def _cut_last_byte(name):
    """A tampering that cuts segment ``name``'s last record short by one
    byte: a malformed record, not a disagreement between records."""

    def tamper(segments):
        segments[name] = segments[name][:-1]

    return tamper


def _edit_catalog_document(edit):
    """A tampering that rewrites the ``meta`` document after ``edit(it)``."""

    def tamper(segments):
        document = json.loads(segments["meta"])
        edit(document)
        segments["meta"] = json.dumps(document).encode()

    return tamper


def _edit_catalog(edit):
    """A tampering that rewrites the ``meta`` document after
    ``edit(music's keyword entry)``."""
    return _edit_catalog_document(lambda document: edit(document["keywords"]["music"]))


def _bump(field, by=1, at=None):
    """An ``edit`` for :func:`_edit_catalog`: ``field`` (item ``at`` of a
    list field) raised by ``by``."""

    def edit(entry):
        if at is None:
            entry[field] += by
        else:
            entry[field][at] += by

    return edit


def _bump_last_id(lists):
    """The last id of the first list with two or more ids, plus one: the
    list stays sorted and as long."""
    i = next(i for i, (_key, ids) in enumerate(lists) if len(ids) > 1)
    ids = lists[i][1].copy()
    ids[-1] += 1
    lists[i] = (lists[i][0], ids)
    return lists


def _set_last_key(value):
    """An ``edit`` of ``[(key, ids)]``: the last list's key becomes ``value``."""

    def edit(lists):
        lists[-1] = (value, lists[-1][1])
        return lists

    return edit


#: Record positions in ``irr/<kw>/0`` and in a later ``irr/<kw>/<p>``.
IP, IR0, IL0 = 0, 1, 2
IR, IL = 0, 1


def _swap_first_two_partitions(segments):
    first = _records("irr/music/0", segments["irr/music/0"])
    second = _records("irr/music/1", segments["irr/music/1"])
    first[IL0], second[IL] = second[IL], first[IL0]
    segments["irr/music/0"], segments["irr/music/1"] = map(b"".join, (first, second))


def _claim_a_set_twice(segments):
    stolen = _lists(_records("irr/music/0", segments["irr/music/0"])[IR0])[:1]
    _edit_lists("irr/music/1", lambda lists: lists + stolen, IR)(segments)


#: case -> (index kind, in-place edit of {segment name: payload},
#:          the inconsistency verify_index must name)
TAMPERINGS = {
    "rr list disagrees": (
        "rr", _edit_lists("inv/music", _shorten_longest), "inverted list of vertex"
    ),
    "rr list missing": (
        "rr", _edit_lists("inv/music", lambda lists: lists[1:]), "count mismatch"
    ),
    "rr catalog count": ("rr", _edit_catalog(_bump("n_sets")), "catalog says"),
    "rr record cut short": ("rr", _cut_last_byte("inv/music"), "payload truncated"),
    "rr catalog n_vertices lowered": (
        "rr",
        _edit_catalog_document(lambda document: document.update(n_vertices=1)),
        r"rr/\w+ holds vertex \d+, outside \[0, 1\)",
    ),
    "irr unsorted partition": (
        "irr",
        _edit_lists("irr/music/0", lambda lists: lists[::-1], IL0),
        "irr/music/0 IL list of vertex",
    ),
    "irr partitions swapped": (
        "irr", _swap_first_two_partitions, "irr/music/0 IL list"
    ),
    "irr list id changed": (
        "irr",
        _edit_lists("irr/music/1", _bump_last_id, IL),
        "irr/music/1 IL list of vertex",
    ),
    "irr catalog first lens lowered": (
        "irr",
        _edit_catalog(_bump("partition_first_lens", -1, at=1)),
        "keywords.music.partition_first_lens disagrees",
    ),
    "irr catalog set count off by one": (
        "irr",
        _edit_catalog(_bump("partition_set_counts", 1, at=0)),
        "keywords.music.partition_set_counts disagrees",
    ),
    "irr catalog delta 0": (
        "irr",
        _edit_catalog_document(lambda document: document.update(delta=0)),
        "index catalog field delta is 0",
    ),
    "irr set id out of range": (
        "irr",
        _edit_lists("irr/music/1", _set_last_key(10**6), IR),
        r"irr/music IR holds set 1000000, outside \[0, ",
    ),
    "irr catalog n_vertices lowered": (
        "irr",
        _edit_catalog_document(lambda document: document.update(n_vertices=1)),
        r"irr/\w+ IR holds vertex \d+, outside \[0, 1\)",
    ),
    "irr set claimed twice": (
        "irr", _claim_a_set_twice, r"irr/music IR claims RR set \d+ 2 times"
    ),
    "irr record cut short": ("irr", _cut_last_byte("irr/music/1"), "overruns by 1"),
    "irr set unclaimed": (
        "irr",
        _edit_lists("irr/music/0", lambda lists: lists[1:], IR0),
        r"irr/music IR claims RR set \d+ 0 times",
    ),
    "irr ip disagrees": (
        "irr",
        _edit_lists(
            "irr/music/0",
            lambda lists: [(lists[0][0], lists[0][1] + 1)] + lists[1:],
            IP,
        ),
        "irr/music/0 IP list of vertex",
    ),
}


def _tampered(source, out, tamper):
    """Copy an index file after ``tamper`` edited ``{segment: payload}``."""
    with SegmentReader(source) as reader:
        segments = {name: reader.read(name) for name in reader.names()}
    tamper(segments)
    with SegmentWriter(out) as writer:
        for name, payload in segments.items():
            writer.add(name, payload)
    return out


class TestVerifyIndexDeepChecks:
    """Every segment keeps a valid CRC, so only the deep check can object."""

    @pytest.mark.parametrize("deep", [True, False])
    @pytest.mark.parametrize(
        "kind,dropped", [("rr", "inv/music"), ("irr", "irr/music/1")]
    )
    def test_missing_segment_is_named(self, kind, dropped, deep, built, tmp_path):
        out = _tampered(
            built[0] if kind == "rr" else built[1],
            str(tmp_path / f"short.{kind}"),
            lambda segments: segments.pop(dropped),
        )
        with pytest.raises(CorruptIndexError, match=f"missing segment '{dropped}'"):
            verify_index(out, deep=deep)

    @pytest.mark.parametrize("case", sorted(TAMPERINGS))
    def test_inconsistency_is_named(self, case, built, tmp_path):
        kind, tamper, message = TAMPERINGS[case]
        out = _tampered(
            built[0] if kind == "rr" else built[1],
            str(tmp_path / f"tampered.{kind}"),
            tamper,
        )
        if case != "rr catalog count":  # a header check, shallow mode has it too
            verify_index(out, deep=False)
        with pytest.raises(CorruptIndexError, match=message):
            verify_index(out)
