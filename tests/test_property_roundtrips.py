"""Hypothesis property tests for persistence and consistency invariants."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.errors import StorageError
from repro.graph.digraph import DiGraph
from repro.graph.io import load_npz, save_npz
from repro.profiles.io import load_profiles_npz, save_profiles_npz
from repro.profiles.store import ProfileStore
from repro.profiles.topics import TopicSpace
from repro.storage.compression import Codec
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.utils.rrsets import FlatRRSets


@st.composite
def random_graph(draw):
    n = draw(st.integers(2, 20))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=50))
    probs = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            ),
        )
    )
    return DiGraph.from_edges(n, edges, probs)


@st.composite
def random_profiles(draw):
    n_users = draw(st.integers(1, 15))
    topics = TopicSpace.default(draw(st.integers(1, 6)))
    entries = []
    seen = set()
    for _ in range(draw(st.integers(0, 30))):
        user = draw(st.integers(0, n_users - 1))
        topic = draw(st.integers(0, topics.size - 1))
        if (user, topic) in seen:
            continue
        seen.add((user, topic))
        tf = draw(st.floats(0.01, 10.0, allow_nan=False))
        entries.append((user, topic, tf))
    return ProfileStore(n_users, topics, entries)


class TestGraphPersistenceProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(random_graph())
    def test_npz_roundtrip(self, tmp_path_factory, graph):
        path = tmp_path_factory.mktemp("prop") / "g.npz"
        save_npz(graph, path)
        assert load_npz(path) == graph


class TestProfilePersistenceProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(random_profiles())
    def test_profiles_npz_roundtrip(self, tmp_path_factory, store):
        """Every store, an empty one included, comes back entry for entry."""
        path = tmp_path_factory.mktemp("prop") / "p.npz"
        save_profiles_npz(store, path)
        loaded = load_profiles_npz(path)
        assert (loaded.n_users, loaded.topics, loaded.nnz) == (
            store.n_users,
            store.topics,
            store.nnz,
        )
        for user in range(store.n_users):
            got, want = loaded.topics_of(user), store.topics_of(user)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()


class TestProfileConsistencyProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_profiles(), st.data())
    def test_phi_vector_matches_pointwise_phi(self, store, data):
        usable = [t for t in range(store.topics.size) if store.df(t) > 0]
        if not usable:
            return
        keywords = data.draw(
            st.lists(st.sampled_from(usable), min_size=1, unique=True)
        )
        vector = store.phi_vector(keywords)
        for user in range(store.n_users):
            assert vector[user] == pytest.approx(store.phi(user, keywords))
        assert vector.sum() == pytest.approx(store.phi_q(keywords))

    @settings(max_examples=40, deadline=None)
    @given(random_profiles(), st.data())
    def test_eqn7_mixture_identity(self, store, data):
        """ps(v, Q) = Σ_w ps(v, w)·p_w for arbitrary stores and queries."""
        usable = [t for t in range(store.topics.size) if store.df(t) > 0]
        if not usable:
            return
        keywords = data.draw(
            st.lists(st.sampled_from(usable), min_size=1, unique=True)
        )
        users, probs = store.query_distribution(keywords)
        mixture = np.zeros(store.n_users)
        for w in keywords:
            w_users, w_probs = store.sampling_distribution(w)
            mixture[w_users] += store.p_w(w, keywords) * w_probs
        for user, p in zip(users, probs):
            assert mixture[int(user)] == pytest.approx(float(p))

    @settings(max_examples=40, deadline=None)
    @given(random_profiles())
    def test_tf_sums_consistent(self, store):
        for topic in range(store.topics.size):
            users, tfs = store.users_of(topic)
            assert store.tf_sum(topic) == pytest.approx(float(tfs.sum()))
            assert store.df(topic) == len(users)


# ----------------------------------------------------------------------
# the columnar (v2) records
# ----------------------------------------------------------------------
def _gapped(gaps):
    """Sorted ids from a first id and positive gaps, clipped to int64."""
    ids = np.cumsum(np.asarray(gaps, dtype=object))
    return np.asarray([i for i in ids if i <= 2**63 - 1], dtype=np.int64)


#: One id list: the usual small ids, or a first id / gaps reaching for the
#: edges of the domain (a 63-bit gap, ids at 2**63 - 1).
id_list = st.one_of(
    st.lists(st.integers(0, 3000), max_size=12, unique=True).map(sorted).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    st.lists(
        st.sampled_from([0, 1, 5, 2**31, 2**62, 2**63 - 1]), min_size=1, max_size=4
    ).map(lambda gaps: _gapped([gaps[0]] + [g + 1 for g in gaps[1:]])),
    st.just(np.asarray([2**63 - 1], dtype=np.int64)),
)

#: A list set: anything from the empty record up to a few 128-value
#: blocks, optionally padded so its counts or gaps stream is exactly 128
#: or 129 values long.
list_sets = st.builds(
    lambda lists, pad: lists + [np.asarray([7], dtype=np.int64)] * pad,
    st.lists(id_list, max_size=40),
    st.sampled_from([0, 0, 88, 89, 128, 129]),
)


def _as_csr(lists):
    flat = FlatRRSets.from_sets(lists)
    return flat.ptr, flat.vertices


def _rr_prefix(record, count):
    """``decode_prefix_csr`` of the first ``count`` sets, through the
    reader's own steps (header, offset table, bounded payload slice)."""
    n_sets, group_size, payload_len, payload_start = RRSetsRecord.read_header(record)
    start, length = RRSetsRecord.offset_table_range(record)
    offsets = RRSetsRecord.decode_offsets(record[start : start + length])
    end = RRSetsRecord.prefix_payload_end(offsets, payload_len, group_size, count)
    return RRSetsRecord.decode_prefix_csr(
        memoryview(record)[payload_start : payload_start + end], count
    )


class TestColumnarRecordProperties:
    @settings(max_examples=60, deadline=None)
    @given(list_sets, st.sampled_from(list(Codec)), st.sampled_from([1, 3, 64, 256]))
    def test_rr_record_prefixes(self, lists, codec, group_size):
        """Every prefix ``0…n_sets`` of every record, at several group
        sizes, is the full decode clipped — and the full decode is the
        input, the oracle's reading, and ``int64``."""
        ptr, flat = _as_csr(lists)
        record = RRSetsRecord.encode(ptr, flat, codec, group_size)
        assert RRSetsRecord.encode(ptr, flat, codec, group_size) == record
        payload = record[RRSetsRecord.read_header(record)[3] :]
        assert oracles.decode_rr_payload(payload, len(lists)) == [x.tolist() for x in lists]
        for count in range(len(lists) + 1):
            got_ptr, got_flat = _rr_prefix(record, count)
            assert got_ptr.dtype == got_flat.dtype == np.int64
            assert np.array_equal(got_ptr, ptr[: count + 1])
            assert np.array_equal(got_flat, flat[: ptr[count]])

    @settings(max_examples=60, deadline=None)
    @given(list_sets, st.sampled_from(list(Codec)), st.data())
    def test_inverted_record(self, lists, codec, data):
        """Keys in any order (``IL`` sorts by length, not key), up to the
        top of the id domain."""
        keys = data.draw(
            st.lists(
                st.integers(0, 5000) | st.sampled_from([2**63 - 1, 2**62]),
                min_size=len(lists),
                max_size=len(lists),
            )
        )
        ptr, flat = _as_csr(lists)
        record = InvertedListsRecord.encode(np.asarray(keys, np.int64), ptr, flat, codec)
        assert InvertedListsRecord.encode(keys, ptr, flat, codec) == record
        got_keys, got_ptr, got_flat = InvertedListsRecord.decode_csr(memoryview(record))
        assert got_keys.dtype == got_ptr.dtype == got_flat.dtype == np.int64
        assert got_keys.tolist() == keys
        assert np.array_equal(got_ptr, ptr) and np.array_equal(got_flat, flat)
        assert oracles.decode_inverted_record(record) == [
            (key, ids.tolist()) for key, ids in zip(keys, lists)
        ]

    @settings(max_examples=40, deadline=None)
    @given(list_sets.filter(lambda lists: sum(map(len, lists)) > 1), st.data())
    def test_encoder_rejects_unsorted_and_negative_ids(self, lists, data):
        ptr, flat = _as_csr(lists)
        victim = data.draw(st.integers(0, len(flat) - 1))
        broken = flat.copy()
        broken[victim] = -1 - broken[victim]
        for encode in (
            lambda ids: RRSetsRecord.encode(ptr, ids),
            lambda ids: InvertedListsRecord.encode(np.arange(len(lists)), ptr, ids),
        ):
            with pytest.raises(StorageError, match="non-negative"):
                encode(broken)
        inside = np.flatnonzero(np.diff(ptr) > 1)
        if len(inside):  # swap the first two ids of a list that has two
            at = ptr[data.draw(st.sampled_from(inside.tolist()))]
            swapped = flat.copy()
            swapped[[at, at + 1]] = swapped[[at + 1, at]]
            with pytest.raises(StorageError, match="strictly increasing"):
                RRSetsRecord.encode(ptr, swapped)


class TestNoPerListPython:
    """Decoding and encoding cost a number of Python-level calls that
    depends on how many streams a record has, never on how many lists it
    holds: 200 lists and 2 000 lists over the same 391 blocks of ids make
    exactly the same calls.  (200 and 2 000 rather than 100 and 1 000 so
    both counts are two-byte varints — the scalar varint walk makes one
    call per byte of a record's three header fields — and 50 000 ids so
    both records unpack in one slice.)"""

    @staticmethod
    def _record(n_lists, per_list):
        ids = np.arange(per_list, dtype=np.int64) * 3
        ptr = np.arange(n_lists + 1, dtype=np.int64) * per_list
        return ptr, np.tile(ids, n_lists)

    @staticmethod
    def _calls(function):
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            function()
        finally:
            sys.setprofile(None)
        return calls

    def test_call_counts_do_not_depend_on_the_number_of_lists(self):
        few, many = self._record(200, 250), self._record(2000, 25)
        assert len(few[1]) == len(many[1]) == 50_000
        keys_few, keys_many = np.arange(200) * 5, np.arange(2000) * 5
        counted = {}
        for name, (ptr, flat), keys in (("few", few, keys_few), ("many", many, keys_many)):
            rr = RRSetsRecord.encode(ptr, flat, Codec.PFOR, group_size=len(ptr) - 1)
            payload = memoryview(rr)[RRSetsRecord.read_header(rr)[3] :]
            inverted = InvertedListsRecord.encode(keys, ptr, flat, Codec.PFOR)
            counted[name] = (
                self._calls(lambda: RRSetsRecord.decode_prefix_csr(payload, len(keys))),
                self._calls(lambda: InvertedListsRecord.decode_csr(inverted)),
                self._calls(
                    lambda: RRSetsRecord.encode(ptr, flat, Codec.PFOR, len(keys))
                ),
                self._calls(
                    lambda: InvertedListsRecord.encode(keys, ptr, flat, Codec.PFOR)
                ),
            )
        assert counted["few"] == counted["many"]
        # A few dozen calls per stream and slice, not 2 000 walks.
        assert max(counted["many"][:2]) < 200 and max(counted["many"][2:]) < 600
