"""Property tests for the flat-CSR fast paths (PR 1's tentpole).

Two contracts guard the vectorised pipeline:

* the batched multi-root reverse samplers draw from the *same
  distribution* as the scalar per-root walks in ``tests/oracles.py``
  (they consume randomness in different orders, so equivalence is
  statistical: mean RR size, per-vertex inclusion frequencies, and
  coverage estimates agree within CI bounds on fixed seeds);
* the CSR-backed :class:`~repro.core.coverage.CoverageInstance` and the
  greedy kernel are **bit-identical** to the seed (dict-of-arrays)
  implementation on randomized instances — the reference implementation
  lives in ``tests/oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.propagation.kernels as kernels_module
from repro.storage.compression import Codec, encode_id_lists
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.core.coverage import (
    CoverageInstance,
    greedy_max_coverage,
    merge_coverage_csr,
)
from repro.core.rr_index import KeywordCoverageCSR
from repro.core.sampler import sample_uniform_roots, sample_weighted_roots
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import twitter_like
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.utils.rrsets import FlatRRSets

from listform import encode_inverted_lists, encode_rr_sets, invert
from oracles import (
    decode_inverted_record,
    decode_rr_payload,
    ic_rr_set_reference,
    lt_rr_set_reference,
    seed_greedy_max_coverage,
)


@pytest.fixture(scope="module")
def model():
    return IndependentCascade(twitter_like(400, avg_degree=8, rng=31))


# ----------------------------------------------------------------------
# (a) batched sampler ≈ scalar sampler, statistically
# ----------------------------------------------------------------------
#: Every sampling path: one batched kernel per model.
SAMPLERS = {
    "IC": IndependentCascade,
    "LT": lambda g: LinearThreshold(g, weight_rng=37),
}


class TestSamplerContract:
    """Whatever the model, a batch is one ``FlatRRSets`` of ``len(roots)``
    sorted sets, set ``i`` holding root ``i`` — no roots, the empty one."""

    @pytest.fixture(scope="class")
    def graph(self):
        return twitter_like(200, avg_degree=6, rng=35)

    @pytest.mark.parametrize("n_roots", [0, 40])
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_batch_is_flat_sorted_and_rooted(self, graph, name, n_roots):
        model = SAMPLERS[name](graph)
        roots = np.random.default_rng(38).integers(0, graph.n, n_roots).tolist()
        batch = model.sample_rr_sets(roots, np.random.default_rng(39))
        assert isinstance(batch, FlatRRSets)
        assert len(batch) == len(roots)
        for root, rr in zip(roots, batch):
            assert root in rr
            assert np.all(np.diff(rr) > 0)
        assert np.all((batch.vertices >= 0) & (batch.vertices < graph.n))


class TestBatchedSamplerEquivalence:
    THETA = 4000

    def _scalar(self, model, rng):
        gen = np.random.default_rng(rng)
        roots = sample_uniform_roots(model.graph.n, self.THETA, gen)
        return [ic_rr_set_reference(model.graph, int(r), gen) for r in roots]

    def _batched(self, model, rng):
        gen = np.random.default_rng(rng)
        roots = sample_uniform_roots(model.graph.n, self.THETA, gen)
        return model.sample_rr_sets(roots, gen)

    def test_mean_rr_size_within_ci(self, model):
        scalar = self._scalar(model, 101)
        batched = self._batched(model, 202)
        s_sizes = np.array([len(rr) for rr in scalar], dtype=float)
        b_sizes = np.array([len(rr) for rr in batched], dtype=float)
        # Two-sample z-bound at ~5 sigma: deterministic under the fixed
        # seeds, and far outside what a distribution mismatch would allow.
        stderr = np.sqrt(
            s_sizes.var() / len(s_sizes) + b_sizes.var() / len(b_sizes)
        )
        assert abs(s_sizes.mean() - b_sizes.mean()) <= 5 * max(stderr, 1e-9)

    def test_coverage_estimates_within_ci(self, model):
        """F_θ(S)/θ must agree between the kernels (Lemma 1 both ways)."""
        seeds = {0, 7, 42}
        hits = {}
        for name, rr_sets in (
            ("scalar", self._scalar(model, 303)),
            ("batched", self._batched(model, 404)),
        ):
            hits[name] = np.array(
                [bool(seeds & set(rr.tolist())) for rr in rr_sets], dtype=float
            )
        stderr = np.sqrt(
            hits["scalar"].var() / self.THETA + hits["batched"].var() / self.THETA
        )
        diff = abs(hits["scalar"].mean() - hits["batched"].mean())
        assert diff <= 5 * max(stderr, 1e-9)

    def test_per_vertex_inclusion_frequencies(self, model):
        """Inclusion frequency of every vertex for one fixed root."""
        theta = 3000
        n = model.graph.n
        root = 5
        freq = {}
        for name, sampler in (
            (
                "scalar",
                lambda g: [
                    ic_rr_set_reference(model.graph, root, g) for _ in range(theta)
                ],
            ),
            (
                "batched",
                lambda g: model.sample_rr_sets(
                    np.full(theta, root, dtype=np.int64), g
                ),
            ),
        ):
            counts = np.zeros(n)
            for rr in sampler(np.random.default_rng(55)):
                counts[rr] += 1
            freq[name] = counts / theta
        # Bernoulli 5-sigma envelope per vertex.
        p = (freq["scalar"] + freq["batched"]) / 2
        envelope = 5 * np.sqrt(np.maximum(p * (1 - p), 1e-12) * 2 / theta)
        assert np.all(np.abs(freq["scalar"] - freq["batched"]) <= envelope + 1e-9)

    def test_structural_contract(self, model):
        """Sorted, root included, one set per root, ids in range."""
        roots = sample_uniform_roots(model.graph.n, 64, np.random.default_rng(9))
        sets = model.sample_rr_sets(roots, np.random.default_rng(10))
        assert len(sets) == len(roots)
        for root, rr in zip(roots, sets):
            assert rr.dtype == np.int64
            assert root in rr
            assert np.all(np.diff(rr) > 0)
            assert rr[0] >= 0 and rr[-1] < model.graph.n

    def test_chunking_preserves_contract(self, model, monkeypatch):
        """Tiny chunk budget: many chunks, same structural guarantees."""
        monkeypatch.setattr(kernels_module, "_MAX_STATE_CELLS", model.graph.n * 3)
        roots = sample_uniform_roots(model.graph.n, 50, np.random.default_rng(12))
        sets = model.sample_rr_sets(roots, np.random.default_rng(13))
        assert len(sets) == len(roots)
        for root, rr in zip(roots, sets):
            assert root in rr and np.all(np.diff(rr) > 0)

    def test_out_of_range_root_rejected(self, model):
        with pytest.raises(GraphError):
            model.sample_rr_sets([model.graph.n], np.random.default_rng(1))
        with pytest.raises(GraphError):
            model.sample_rr_sets([-1], np.random.default_rng(1))


@pytest.fixture(scope="module")
def lt_model():
    return LinearThreshold(twitter_like(400, avg_degree=8, rng=31), weight_rng=32)


class TestLTBatchedSamplerEquivalence:
    """The single-pick kernel draws the scalar LT walk's distribution."""

    THETA = 4000

    def _scalar(self, model, rng):
        gen = np.random.default_rng(rng)
        roots = sample_uniform_roots(model.graph.n, self.THETA, gen)
        return [
            lt_rr_set_reference(model.graph, model.weights, int(r), gen)
            for r in roots
        ]

    def _batched(self, model, rng):
        gen = np.random.default_rng(rng)
        roots = sample_uniform_roots(model.graph.n, self.THETA, gen)
        return model.sample_rr_sets(roots, gen)

    def test_mean_rr_size_within_ci(self, lt_model):
        scalar = self._scalar(lt_model, 111)
        batched = self._batched(lt_model, 222)
        s_sizes = np.array([len(rr) for rr in scalar], dtype=float)
        b_sizes = np.array([len(rr) for rr in batched], dtype=float)
        stderr = np.sqrt(
            s_sizes.var() / len(s_sizes) + b_sizes.var() / len(b_sizes)
        )
        assert abs(s_sizes.mean() - b_sizes.mean()) <= 5 * max(stderr, 1e-9)

    def test_coverage_estimates_within_ci(self, lt_model):
        """F_θ(S)/θ must agree between the kernels (Lemma 1 both ways)."""
        seeds = {0, 7, 42}
        hits = {}
        for name, rr_sets in (
            ("scalar", self._scalar(lt_model, 313)),
            ("batched", self._batched(lt_model, 414)),
        ):
            hits[name] = np.array(
                [bool(seeds & set(rr.tolist())) for rr in rr_sets], dtype=float
            )
        stderr = np.sqrt(
            hits["scalar"].var() / self.THETA + hits["batched"].var() / self.THETA
        )
        diff = abs(hits["scalar"].mean() - hits["batched"].mean())
        assert diff <= 5 * max(stderr, 1e-9)

    def test_per_vertex_inclusion_frequencies(self, lt_model):
        """Inclusion frequency of every vertex for one fixed root."""
        theta = 3000
        n = lt_model.graph.n
        root = 5
        freq = {}
        for name, sampler in (
            (
                "scalar",
                lambda g: [
                    lt_rr_set_reference(lt_model.graph, lt_model.weights, root, g)
                    for _ in range(theta)
                ],
            ),
            (
                "batched",
                lambda g: lt_model.sample_rr_sets(
                    np.full(theta, root, dtype=np.int64), g
                ),
            ),
        ):
            counts = np.zeros(n)
            for rr in sampler(np.random.default_rng(56)):
                counts[rr] += 1
            freq[name] = counts / theta
        p = (freq["scalar"] + freq["batched"]) / 2
        envelope = 5 * np.sqrt(np.maximum(p * (1 - p), 1e-12) * 2 / theta)
        assert np.all(np.abs(freq["scalar"] - freq["batched"]) <= envelope + 1e-9)

    def test_explicit_weight_pick_probabilities(self):
        """P[u ∈ RR(2)] equals b(u, 2) exactly (two-in-edge fixture)."""
        g = DiGraph.from_edges(3, [(0, 2), (1, 2)])
        model = LinearThreshold(g, weights=np.array([0.3, 0.5]))
        n = 30_000
        hits = np.zeros(3)
        batch = model.sample_rr_sets(
            np.full(n, 2, dtype=np.int64), np.random.default_rng(44)
        )
        for rr in batch:
            hits[rr] += 1
        assert hits[0] / n == pytest.approx(0.3, abs=0.02)
        assert hits[1] / n == pytest.approx(0.5, abs=0.02)
        assert hits[2] == n  # root always present
        # At most one in-edge ever picked per walk.
        for rr in batch:
            assert not {0, 1} <= set(rr.tolist())

    def test_structural_contract(self, lt_model):
        """Sorted, root included, one set per root, ids in range."""
        roots = sample_uniform_roots(
            lt_model.graph.n, 64, np.random.default_rng(19)
        )
        sets = lt_model.sample_rr_sets(roots, np.random.default_rng(20))
        assert len(sets) == len(roots)
        for root, rr in zip(roots, sets):
            assert rr.dtype == np.int64
            assert root in rr
            assert np.all(np.diff(rr) > 0)
            assert rr[0] >= 0 and rr[-1] < lt_model.graph.n

    def test_chunking_preserves_contract(self, lt_model, monkeypatch):
        monkeypatch.setattr(
            kernels_module, "_MAX_STATE_CELLS", lt_model.graph.n * 3
        )
        roots = sample_uniform_roots(
            lt_model.graph.n, 50, np.random.default_rng(21)
        )
        sets = lt_model.sample_rr_sets(roots, np.random.default_rng(22))
        assert len(sets) == len(roots)
        for root, rr in zip(roots, sets):
            assert root in rr and np.all(np.diff(rr) > 0)

    def test_out_of_range_root_rejected(self, lt_model):
        with pytest.raises(GraphError):
            lt_model.sample_rr_sets(
                [lt_model.graph.n], np.random.default_rng(1)
            )
        with pytest.raises(GraphError):
            lt_model.sample_rr_sets([-1], np.random.default_rng(1))

    def test_cycle_terminates(self):
        """Full-weight cycles: every walk must stop on revisit."""
        g = DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        model = LinearThreshold(g)
        for rr in model.sample_rr_sets(
            np.array([0, 1, 2, 0]), np.random.default_rng(2)
        ):
            assert len(rr) <= 3


class TestFlatRRSets:
    """The flat container is a faithful Sequence[np.ndarray]."""

    def make(self):
        return FlatRRSets(
            np.array([0, 2, 2, 5]), np.array([3, 7, 1, 4, 9])
        )

    def test_sequence_semantics(self):
        sets = self.make()
        assert len(sets) == 3
        assert sets[0].tolist() == [3, 7]
        assert sets[1].tolist() == []
        assert sets[-1].tolist() == [1, 4, 9]
        assert [rr.tolist() for rr in sets] == [[3, 7], [], [1, 4, 9]]
        with pytest.raises(IndexError):
            sets[3]
        with pytest.raises(TypeError):
            sets[1:]  # one set per index; a batch is sliced by its ptr
        assert sets.sizes().tolist() == [2, 0, 3]
        assert sets.total_size == 5

    def test_mismatched_ptr_rejected(self):
        with pytest.raises(ValueError):
            FlatRRSets(np.array([0, 3]), np.array([1]))

    def test_concatenate(self):
        merged = FlatRRSets.concatenate([self.make(), self.make()])
        assert len(merged) == 6
        assert merged.sizes().tolist() == [2, 0, 3, 2, 0, 3]
        assert merged[3].tolist() == [3, 7]

    def test_coverage_instance_matches_list_form(self, model):
        roots = sample_uniform_roots(model.graph.n, 300, np.random.default_rng(71))
        flat = model.sample_rr_sets(roots, np.random.default_rng(72))
        assert isinstance(flat, FlatRRSets)
        fast = CoverageInstance(model.graph.n, flat)
        slow = CoverageInstance(model.graph.n, list(flat))
        assert fast.counts().tolist() == slow.counts().tolist()
        for k in (1, 5, 20):
            reference = seed_greedy_max_coverage(model.graph.n, list(flat), k)
            assert greedy_max_coverage(fast, k) == reference
            assert greedy_max_coverage(slow, k) == reference

    def test_invert_matches_list_form(self, model):
        """The flat form goes to the writers as-is; a plain list of sets
        is flattened once and inverts to the same lists."""
        roots = sample_uniform_roots(model.graph.n, 200, np.random.default_rng(73))
        flat = model.sample_rr_sets(roots, np.random.default_rng(74))
        assert FlatRRSets.from_sets(flat) is flat
        relisted = FlatRRSets.from_sets(list(flat))
        assert np.array_equal(relisted.ptr, flat.ptr)
        assert np.array_equal(relisted.vertices, flat.vertices)
        fast = invert(flat)
        slow = invert(list(flat))
        assert [v for v, _ in fast] == [v for v, _ in slow]
        for (_va, ids_a), (_vb, ids_b) in zip(fast, slow):
            assert np.array_equal(ids_a, ids_b)
        # Against the definition: vertex -> ascending ids of its sets.
        expected = {}
        for set_id, rr in enumerate(flat):
            for v in rr.tolist():
                expected.setdefault(v, []).append(set_id)
        assert {v: ids.tolist() for v, ids in fast} == expected
        assert [v for v, _ in fast] == sorted(expected)


class TestWeightedRootsSearchsorted:
    """The cumsum+searchsorted draw keeps Generator.choice's contract."""

    def test_distribution(self):
        users = np.array([2, 5, 11])
        probs = np.array([0.6, 0.3, 0.1])
        roots = sample_weighted_roots(users, probs, 30_000, rng=17)
        freq = {u: np.mean(roots == u) for u in users}
        assert freq[2] == pytest.approx(0.6, abs=0.02)
        assert freq[5] == pytest.approx(0.3, abs=0.02)
        assert freq[11] == pytest.approx(0.1, abs=0.02)

    def test_zero_probability_user_never_drawn(self):
        users = np.array([1, 2, 3])
        probs = np.array([0.5, 0.0, 0.5])
        roots = sample_weighted_roots(users, probs, 5000, rng=18)
        assert 2 not in set(roots.tolist())

    def test_unnormalised_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sample_weighted_roots(np.array([1, 2]), np.array([0.5, 0.4]), 10)

    def test_negative_probability_rejected(self):
        """Entries that sum to 1 but go negative would corrupt the CDF."""
        with pytest.raises(ValueError, match="non-negative"):
            sample_weighted_roots(
                np.array([1, 2, 3]), np.array([0.6, -0.1, 0.5]), 10
            )


# ----------------------------------------------------------------------
# (b) CSR coverage engine bit-identical to the seed implementation
# ----------------------------------------------------------------------
def random_instance(data, n):
    n_sets = data.draw(st.integers(0, 15))
    sets = [
        data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=0, max_size=n, unique=True
            ).map(sorted)
        )
        for _ in range(n_sets)
    ]
    return [np.asarray(s, dtype=np.int64) for s in sets]


class TestCSRBitIdenticalToSeed:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 14), st.data())
    def test_greedy_matches_seed(self, n, data):
        sets = random_instance(data, n)
        k = data.draw(st.integers(1, n + 2))
        reference = seed_greedy_max_coverage(n, sets, k)
        instance = CoverageInstance(n, sets)
        assert greedy_max_coverage(instance, k) == reference

    def test_fixed_regression_fixture(self):
        """A deterministic fixture with ties, empty sets and zero fills."""
        rng = np.random.default_rng(77)
        n = 60
        sets = [
            np.unique(rng.integers(0, n, size=rng.integers(0, 10)))
            for _ in range(40)
        ] + [np.empty(0, dtype=np.int64)]
        for k in (1, 3, 10, 60):
            reference = seed_greedy_max_coverage(n, sets, k)
            instance = CoverageInstance(n, sets)
            assert greedy_max_coverage(instance, k) == reference

    def test_counts_match_seed_semantics(self):
        sets = [np.array([0, 2]), np.array([2, 3]), np.array([2])]
        instance = CoverageInstance(5, sets)
        assert instance.counts().tolist() == [1, 0, 3, 1, 0]
        assert instance.n_sets == 3


class TestBatchDecoder:
    """The columnar record decoders are bit-identical to the scalar
    per-value reference decoder in ``tests/oracles.py``."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mixed_codec_streams(self, data):
        """Group chunks carry their own codec tag, so one payload may mix
        codecs: eager (RAW) and queued (PFOR) streams interleave
        in one decoder."""
        n_lists = data.draw(st.integers(0, 12))
        lists, blob = [], b""
        for _ in range(n_lists):
            codec = data.draw(st.sampled_from(list(Codec)))
            ids = np.asarray(
                sorted(
                    data.draw(
                        st.sets(st.integers(0, 100_000), min_size=0, max_size=50)
                    )
                ),
                dtype=np.int64,
            )
            lists.append(ids)
            blob += bytes([codec.value, 1]) + encode_id_lists([0, len(ids)], ids, codec)
        ptr, flat = RRSetsRecord.decode_prefix_csr(blob, n_lists)
        scalar = decode_rr_payload(blob, n_lists)
        for i, expected in enumerate(lists):
            assert flat[ptr[i] : ptr[i + 1]].tolist() == scalar[i]
            assert scalar[i] == expected.tolist()

    def test_pfor_exceptions_roundtrip(self):
        # Heavy-tailed gaps force PFoR exceptions in every block.
        rng = np.random.default_rng(3)
        gaps = rng.choice([1, 2, 3, 10**6], size=400, p=[0.5, 0.3, 0.1, 0.1])
        ids = np.cumsum(gaps).astype(np.int64)
        record = encode_rr_sets([ids] * 3, Codec.PFOR, group_size=2)
        payload = record[RRSetsRecord.read_header(record)[3] :]
        gaps_stream = payload[payload.index(bytes([2] * 7)) :]  # widths 2 × 7 blocks
        assert gaps_stream[7] > 40  # ... and its exception count
        ptr, flat = RRSetsRecord.decode_prefix_csr(payload, 3)
        for i in range(3):
            assert np.array_equal(flat[ptr[i] : ptr[i + 1]], ids)

    def test_records_csr_matches_list_decode(self):
        rng = np.random.default_rng(4)
        sets = [
            np.unique(rng.integers(0, 5000, size=rng.integers(0, 30)))
            for _ in range(70)
        ]
        record = encode_rr_sets(sets, Codec.PFOR, group_size=16)
        header = RRSetsRecord.read_header(record)
        payload = record[header[3] : header[3] + header[2]]
        for count in (0, 1, 33, 70):
            ptr, flat = RRSetsRecord.decode_prefix_csr(payload, count)
            assert len(ptr) == count + 1
            scalar = decode_rr_payload(payload, count)
            for i in range(count):
                assert flat[ptr[i] : ptr[i + 1]].tolist() == scalar[i]
                assert scalar[i] == sets[i].tolist()

        inv = invert(sets)
        record = encode_inverted_lists(inv, Codec.PFOR)
        keys, ptr, flat = InvertedListsRecord.decode_csr(record)
        assert keys.tolist() == [k for k, _ in inv]
        for i, (_k, expected) in enumerate(inv):
            assert np.array_equal(flat[ptr[i] : ptr[i + 1]], expected)
        assert decode_inverted_record(record) == [(k, v.tolist()) for k, v in inv]


class TestQueryLayerCSR:
    """KeywordCoverageCSR clipping == the seed per-vertex prefix loop."""

    def make_block(self, rng, n, n_sets):
        sets = [
            np.unique(rng.integers(0, n, size=rng.integers(1, 8)))
            for _ in range(n_sets)
        ]
        return sets, invert(sets)

    @staticmethod
    def block_of(sets, lists):
        """A decoded block, through the records and the one decoder."""
        record = encode_rr_sets(sets)
        _n, _g, payload_len, payload_start = RRSetsRecord.read_header(record)
        return KeywordCoverageCSR.from_csr_arrays(
            *RRSetsRecord.decode_prefix_csr(record[payload_start:], len(sets)),
            *InvertedListsRecord.decode_csr(encode_inverted_lists(lists)),
        )

    def test_active_part_matches_searchsorted_clip(self):
        rng = np.random.default_rng(5)
        n, n_sets, count, base = 30, 25, 11, 100
        sets, lists = self.make_block(rng, n, n_sets)
        csr = self.block_of(sets, lists)
        set_ptr, set_vertices, inv_v, inv_s = csr.active_part(count, base)

        # Seed semantics: per-vertex searchsorted prefix clip + offset.
        expected = {}
        for vertex, set_ids in lists:
            active = set_ids[: np.searchsorted(set_ids, count)]
            if len(active):
                expected[vertex] = (active + base).tolist()
        got = {}
        for v, s in zip(inv_v.tolist(), inv_s.tolist()):
            got.setdefault(v, []).append(s)
        assert got == expected
        assert len(set_ptr) == count + 1
        rebuilt = [
            set_vertices[set_ptr[i] : set_ptr[i + 1]] for i in range(count)
        ]
        for rr, exp in zip(rebuilt, sets[:count]):
            assert np.array_equal(rr, exp)

    def test_merge_matches_dict_merge(self):
        """Merged CSR instance == seed dict-merged instance, greedy-wise."""
        rng = np.random.default_rng(6)
        n = 40
        blocks = [self.make_block(rng, n, m) for m in (12, 7, 20)]
        counts = (9, 7, 13)

        parts = []
        merged_sets = []
        merged_inverted = {}
        base = 0
        for (sets, lists), count in zip(blocks, counts):
            csr = self.block_of(sets, lists)
            parts.append(csr.active_part(count, base))
            merged_sets.extend(sets[:count])
            for vertex, set_ids in lists:
                active = set_ids[: np.searchsorted(set_ids, count)]
                if len(active):
                    merged_inverted.setdefault(vertex, []).extend(active + base)
            base += count
        fast = merge_coverage_csr(n, parts)
        # The seed's dict merge, vertex by vertex, against the merged CSR.
        ptr = fast.vtx_ptr
        assert {
            v: fast.vtx_sets[ptr[v] : ptr[v + 1]].tolist()
            for v in range(n)
            if ptr[v + 1] > ptr[v]
        } == {v: [int(s) for s in ids] for v, ids in merged_inverted.items()}
        derived = CoverageInstance(n, merged_sets)
        assert fast.n_sets == derived.n_sets == base
        assert fast.counts().tolist() == derived.counts().tolist()
        for k in (1, 4, 12):
            reference = seed_greedy_max_coverage(n, merged_sets, k)
            assert greedy_max_coverage(fast, k) == reference
            assert greedy_max_coverage(derived, k) == reference


# ----------------------------------------------------------------------
# (c) array-native IRR NRA bit-identical to the dict/heap reference
# ----------------------------------------------------------------------
def reference_irr_nra(index, query):
    """The IRR query rules, spelled out per vertex and per keyword with
    dicts and a lazily re-scored heap: the spec the array-native engine
    must match on seeds, marginals, ``rr_sets_loaded`` and
    ``partitions_loaded``.  Reads go through the same reader:
    ``irr/<kw>/0`` holds ``IP_w`` and partition 0, each later
    ``irr/<kw>/<p>`` one partition.

    A vertex's bound sums, per keyword:

    * its list loaded: the active sets in it no seed covers;
    * its ``first_occurrence`` at or past the active prefix: 0;
    * otherwise (pending): ``kb`` less the covered sets under that
      keyword whose loaded members include it.  Every covered set came
      from a seed's loaded list, so its members are loaded, and ``kb``
      caps the list's active length: the term caps its uncovered count.

    Every vertex is in the heap from the start, keyed by (-bound, id).
    Bounds only shrink, so a top entry whose bound is current is the
    max-bound, smallest-id unselected vertex, and it is confirmed
    exactly when it is complete — Algorithm 2's pick, tie rule included.
    Otherwise a round loads the next partition of each keyword that
    vertex is pending under, in query order.
    """
    import heapq

    from repro.core.query import resolve_keyword
    from repro.core.rr_index import plan_theta_q

    keywords = [resolve_keyword(index.topic_names, kw) for kw in query.keywords]
    _theta_q, counts, _phi_q = plan_theta_q(keywords, index.catalog)

    class State:
        def __init__(self, kw):
            n_partitions, first_lens = index._partition_info[kw]
            self.active_count = counts[kw]
            self.n_partitions = n_partitions
            self.partition_first_lens = first_lens
            ip, *self.first_partition = InvertedListsRecord.split(
                index._reader.read(f"irr/{kw}/0"), 3
            )
            keys, ptr, flat = InvertedListsRecord.decode_csr(ip)
            self.first_occurrence = dict(
                zip(keys.tolist(), flat[ptr[:-1]].tolist())
            )
            self.next_partition = 0
            self.loaded_lists = {}
            self.exact_counts = {}
            self.covered = np.zeros(self.active_count, dtype=bool)
            self.covered_n = 0
            self.members = {}
            # pending vertex -> covered sets under this keyword holding it
            self.covered_hits = {}

        @property
        def exhausted(self):
            return self.next_partition >= self.n_partitions

        @property
        def kb(self):
            if self.exhausted:
                return 0
            return min(
                self.partition_first_lens[self.next_partition],
                self.active_count,
            )

        def exact_count(self, vertex):
            exact = self.exact_counts.get(vertex)
            if exact is not None:
                return exact
            first = self.first_occurrence.get(vertex)
            if first is None or first >= self.active_count:
                return 0
            return None

    states = {kw: State(kw) for kw in keywords}
    rr_sets_loaded = 0
    partitions_loaded = 0
    seeds = []
    marginals = []

    def upper_bound(vertex):
        total = 0
        complete = True
        for kw in keywords:
            state = states[kw]
            exact = state.exact_count(vertex)
            if exact is None:
                total += state.kb - state.covered_hits.get(vertex, 0)
                complete = False
            else:
                total += exact
        return total, complete

    def load_next_partitions(waiting):
        nonlocal rr_sets_loaded, partitions_loaded
        for kw in waiting:
            state = states[kw]
            if state.exhausted:
                return False
            p = state.next_partition
            if p == 0:
                records = state.first_partition
            else:
                segment = index._reader.read(f"irr/{kw}/{p}")
                records = InvertedListsRecord.split(segment, 2)
            (ir_keys, ir_ptr, ir_flat), (il_keys, il_ptr, il_flat) = map(
                InvertedListsRecord.decode_csr, records
            )
            partitions_loaded += 1
            ir_bounds = ir_ptr.tolist()
            for i, set_id in enumerate(ir_keys.tolist()):
                state.members[set_id] = ir_flat[ir_bounds[i] : ir_bounds[i + 1]]
            rr_sets_loaded += int(
                np.count_nonzero(ir_keys < state.active_count)
            )
            state.next_partition += 1
            active_mask = il_flat < state.active_count
            if len(il_flat):
                segments = np.repeat(np.arange(len(il_keys)), np.diff(il_ptr))
                lengths = np.bincount(
                    segments[active_mask], minlength=len(il_keys)
                )
            else:
                lengths = np.zeros(len(il_keys), dtype=np.int64)
            clipped = il_flat[active_mask]
            if state.covered_n and len(clipped):
                covered_per = np.bincount(
                    np.repeat(np.arange(len(il_keys)), lengths)[
                        state.covered[clipped]
                    ],
                    minlength=len(il_keys),
                )
                exact = (lengths - covered_per).tolist()
            else:
                exact = lengths.tolist()
            bounds = np.cumsum(lengths).tolist()
            prev = 0
            for i, vertex in enumerate(il_keys.tolist()):
                state.loaded_lists[vertex] = clipped[prev : bounds[i]]
                state.exact_counts[vertex] = exact[i]
                prev = bounds[i]
        return True

    pq = [(-upper_bound(v)[0], v) for v in range(index.n_vertices)]
    heapq.heapify(pq)
    while len(seeds) < query.k and pq:
        neg_bound, vertex = pq[0]
        bound = -neg_bound
        current, complete = upper_bound(vertex)
        if current != bound:
            heapq.heapreplace(pq, (-current, vertex))
            continue
        if complete:
            heapq.heappop(pq)
            seeds.append(vertex)
            marginals.append(current)
            for kw in keywords:
                state = states[kw]
                ids = state.loaded_lists.get(vertex)
                if ids is None or not len(ids):
                    continue
                fresh = ids[~state.covered[ids]]
                if not len(fresh):
                    continue
                state.covered[fresh] = True
                state.covered_n += len(fresh)
                exact_counts = state.exact_counts
                hits = state.covered_hits
                for set_id in fresh.tolist():
                    for u in state.members[set_id].tolist():
                        current = exact_counts.get(u)
                        if current is not None:
                            exact_counts[u] = current - 1
                        else:
                            hits[u] = hits.get(u, 0) + 1
        else:
            waiting = [
                kw for kw in keywords if states[kw].exact_count(vertex) is None
            ]
            if not load_next_partitions(waiting):
                raise AssertionError("reference NRA stalled")

    return seeds, marginals, rr_sets_loaded, partitions_loaded


def query_like_reference(index, query):
    """``index.query(query)``, checked against the reference on seeds,
    marginals and the two work counts."""
    answer = index.query(query)
    seeds, marginals, rr_sets_loaded, partitions_loaded = reference_irr_nra(
        index, query
    )
    assert list(answer.seeds) == seeds
    assert list(answer.marginal_coverages) == marginals
    assert answer.stats.rr_sets_loaded == rr_sets_loaded
    assert answer.stats.partitions_loaded == partitions_loaded
    return answer


#: (partitions_loaded, rr_sets_loaded, io.read_calls) summed over the stream
#: of ``test_work_counts_of_a_fixed_stream_are_pinned``.
PINNED_WORK_COUNTS = (724, 50580, 724)


class TestIRRArrayNativeNRA:
    """Flat-array NRA == the dict/heap reference, bit for bit."""

    #: One partition per vertex ... one partition per keyword.
    DELTAS = (1, 7, 25, 1000)

    @pytest.fixture(scope="class")
    def irr_world(self, tmp_path_factory):
        """One sample table set; an IRR index per δ and the RR index."""
        from repro.core.irr_index import IRRIndexBuilder
        from repro.core.rr_index import RRIndexBuilder
        from repro.core.theta import ThetaPolicy
        from repro.profiles.generators import zipf_profiles
        from repro.profiles.topics import TopicSpace

        graph = twitter_like(300, avg_degree=8, rng=81)
        model = IndependentCascade(graph)
        topics = TopicSpace.default(8)
        profiles = zipf_profiles(graph.n, topics, rng=82)
        policy = ThetaPolicy(epsilon=1.0, K=50, cap=400)
        root = tmp_path_factory.mktemp("irr_nra")
        tables = IRRIndexBuilder(model, profiles, policy=policy, rng=83).sample()
        paths = {"rr": str(root / "index.rr")}
        RRIndexBuilder(model, profiles, policy=policy, rng=83).build(
            paths["rr"], tables=tables
        )
        for delta in self.DELTAS:
            paths[delta] = str(root / f"index-{delta}.irr")
            IRRIndexBuilder(
                model, profiles, policy=policy, delta=delta, rng=83
            ).build(paths[delta], tables=tables)
        return paths

    @pytest.fixture(scope="class")
    def irr_index_path(self, irr_world):
        return irr_world[25]

    QUERIES = [
        (("music",), 1),
        (("music",), 8),
        (("music", "book"), 5),
        (("music", "book", "sport"), 12),
        (("software", "journal"), 30),
    ]

    @pytest.mark.parametrize("keywords,k", QUERIES)
    def test_seeds_and_io_accounting_identical(
        self, irr_index_path, keywords, k
    ):
        from repro.core.irr_index import IRRIndex
        from repro.core.query import KBTIMQuery

        query = KBTIMQuery(keywords, k)
        with IRRIndex(irr_index_path) as index:
            answer = query_like_reference(index, query)

    SWEEP_KEYWORDS = [
        ("music",),
        ("travel", "software"),
        ("book", "sport", "journal"),
        ("food", "music", "car", "software", "book"),
    ]

    @pytest.fixture(scope="class")
    def open_world(self, irr_world):
        """Every index of ``irr_world`` opened once: per δ a default and
        a cache-less (``"cold"``) IRR reader, plus the RR reader."""
        from contextlib import ExitStack

        from repro.core.irr_index import IRRIndex
        from repro.core.rr_index import RRIndex

        with ExitStack() as stack:
            readers = {"rr": stack.enter_context(RRIndex(irr_world["rr"]))}
            for delta in self.DELTAS:
                readers[delta] = stack.enter_context(IRRIndex(irr_world[delta]))
                readers["cold", delta] = stack.enter_context(
                    IRRIndex(irr_world[delta], prefix_cache_keywords=0)
                )
            yield readers

    @pytest.mark.parametrize("k", [1, 3, 10, 40, 50])
    @pytest.mark.parametrize("keywords", SWEEP_KEYWORDS, ids="+".join)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_sweep_matches_reference_cold_reader_and_rr(
        self, open_world, delta, keywords, k
    ):
        """δ × |Q.T| × k: the engine == the dict/heap reference on answers
        and work counts, charges the same I/O with and without the decode
        memo, and picks what Algorithm 2 picks (Theorem 3)."""
        from repro.core.query import KBTIMQuery

        query = KBTIMQuery(keywords, k)
        answer = query_like_reference(open_world[delta], query)
        uncached = open_world["cold", delta].query(query)
        assert uncached.seeds == answer.seeds
        assert uncached.stats.io == answer.stats.io
        oracle = open_world["rr"].query(query)
        assert answer.seeds == oracle.seeds
        assert answer.marginal_coverages == oracle.marginal_coverages
        assert answer.theta == oracle.theta

    @pytest.mark.parametrize("delta", [1, 3])
    def test_unseen_bound_is_clipped_to_the_active_sets(self, tmp_path, delta):
        """A keyword of tiny relevance mass next to a heavy one activates
        θ^Q_j = 1 of its sets, while its inverted lists (over all θ_j of
        its sets, rooted at three users) run past 100: a list can add at
        most θ^Q_j to a bound, and the engine must clip ``kb`` as the
        reference does, or it loads partitions the bound does not need."""
        from repro.core.catalog import plan_theta_q
        from repro.core.irr_index import IRRIndex, IRRIndexBuilder
        from repro.core.query import KBTIMQuery
        from repro.core.theta import ThetaPolicy
        from repro.profiles.store import ProfileStore
        from repro.profiles.topics import TopicSpace

        topics = TopicSpace.default(2)
        heavy, light = topics.name(0), topics.name(1)
        entries = [(u, 0, 1.0) for u in range(200)]
        entries += [(u, 1, 0.05) for u in (3, 40, 77)]
        model = IndependentCascade(twitter_like(200, avg_degree=8, rng=81))
        path = str(tmp_path / "clip.irr")
        IRRIndexBuilder(
            model,
            ProfileStore(200, topics, entries),
            policy=ThetaPolicy(epsilon=1.0, K=10, cap=300),
            delta=delta,
            rng=83,
        ).build(path)
        with IRRIndex(path) as index:
            theta_light = plan_theta_q([heavy, light], index.catalog)[1][light]
            n_partitions, first_lens = index._partition_info[light]
            # The regime: lists beyond the first partition are longer
            # than the sets the query activates.
            assert n_partitions > 2 and first_lens[1] > theta_light
            for k in (1, 3, 10):
                query_like_reference(index, KBTIMQuery((heavy, light), k))

    def test_a_cover_reaches_members_whose_list_is_pending(
        self, irr_world, monkeypatch
    ):
        """A seed covers a set of keyword ``j > 0`` while a member's list
        under ``j`` is still pending: that member's bound drops at the
        cover, one per newly covered set holding it, and when its list
        loads later the bound gains the list's raw clipped length (the
        covered set is already off it) — the answer still the
        reference's."""
        import repro.core.irr_index as irr_module
        from repro.core.query import KBTIMQuery

        waiting = set()  # (j, member) covered while its list under j was pending
        ingested = []  # (j, member, bound gained, raw clipped length)
        cover, ingest = irr_module._cover, irr_module._ingest_partition

        def cover_spy(state, vertex):
            uncovered, before = state.uncovered.copy(), state.live_bound.copy()
            cover(state, vertex)
            drops = {}
            for g in np.flatnonzero(uncovered & ~state.uncovered).tolist():
                j = int(np.searchsorted(state.offset, g, side="right")) - 1
                start = state.mem_start[g]
                for u in state.members_flat[start : start + state.mem_len[g]].tolist():
                    drops[u] = drops.get(u, 0) + 1
                    if j > 0 and state.pending[j, u]:
                        waiting.add((j, u))
            for u, drop in drops.items():
                assert before[u] - state.live_bound[u] == drop, (vertex, u)

        def ingest_spy(state, j, decoded):
            il_keys, il_ptr, il_flat = decoded[3:]
            watched = {
                i: u for i, u in enumerate(il_keys.tolist()) if (j, u) in waiting
            }
            before = state.live_bound.copy()
            ingest(state, j, decoded)
            for i, u in watched.items():
                raw = int((il_flat[il_ptr[i] : il_ptr[i + 1]] < state.theta[j]).sum())
                ingested.append((j, u, int(state.live_bound[u] - before[u]), raw))

        monkeypatch.setattr(irr_module, "_cover", cover_spy)
        monkeypatch.setattr(irr_module, "_ingest_partition", ingest_spy)
        query = KBTIMQuery(("music", "book", "sport"), 12)
        with irr_module.IRRIndex(irr_world[7]) as index:
            query_like_reference(index, query)
        assert waiting
        assert ingested
        assert all(gained == raw for _j, _u, gained, raw in ingested), ingested

    #: One, three and five keywords of ``SWEEP_KEYWORDS``.
    INVARIANT_KEYWORDS = [SWEEP_KEYWORDS[0], SWEEP_KEYWORDS[2], SWEEP_KEYWORDS[3]]

    @pytest.mark.parametrize("keywords", INVARIANT_KEYWORDS, ids="+".join)
    @pytest.mark.parametrize("delta", [1, 7, 25])
    def test_every_bound_caps_its_marginal_after_every_step(
        self, open_world, monkeypatch, delta, keywords
    ):
        """Around every pick-or-load step, every unselected vertex's
        ``live_bound`` is at least its true marginal — counted by brute
        force on the RR reader's merged instance, with the sets of the
        seeds covered so far removed — and equals it where the vertex is
        complete (pending under no keyword)."""
        import repro.core.irr_index as irr_module
        from repro.core.coverage import merge_coverage_csr
        from repro.core.query import KBTIMQuery

        query = KBTIMQuery(keywords, 40)
        rr = open_world["rr"]
        names, counts, _phi = rr.plan(query)
        parts, base = [], 0
        for kw in names:
            parts.append(rr.lookup(kw, counts[kw])[0].active_part(counts[kw], base))
            base += counts[kw]
        instance = merge_coverage_csr(rr.n_vertices, parts)
        set_of = np.repeat(np.arange(instance.n_sets), np.diff(instance.set_ptr))
        steps = []

        def check(state):
            # The last seed is not covered: nobody reads the bounds after it.
            covering = state.seeds[: state.k - 1]
            hit = np.zeros(instance.n_sets, dtype=bool)
            hit[set_of[np.isin(instance.set_vertices, covering)]] = True
            marginal = np.bincount(
                instance.set_vertices[~hit[set_of]], minlength=state.n
            )
            unselected = np.ones(state.n, dtype=bool)
            unselected[state.seeds] = False
            bound = state.live_bound
            assert (bound >= marginal)[unselected].all(), state.seeds
            incomplete = state.pending.any(axis=0)
            # The confirm rule reads kb_part: > 0 exactly where pending.
            assert ((state.kb_part > 0) == incomplete).all(), state.seeds
            complete = unselected & ~incomplete
            assert (bound == marginal)[complete].all(), state.seeds
            steps.append(len(state.seeds))

        pick_or_load = irr_module._pick_or_load

        def spy(index, state):
            check(state)
            pick_or_load(index, state)
            check(state)

        monkeypatch.setattr(irr_module, "_pick_or_load", spy)
        answer = open_world[delta].query(query)
        assert answer.seeds == rr.query(query).seeds
        assert len(steps) > 2 * len(answer.seeds)

    def test_k_beyond_the_positive_candidates_fills_like_greedy(
        self, tmp_path
    ):
        """Asked for more seeds than there are vertices that can score,
        the engine answers what ``greedy_max_coverage`` answers: once every
        positive marginal is taken, the tail is the smallest unpicked ids
        at marginal 0, whether or not a list of theirs was loaded."""
        from repro.core.irr_index import IRRIndex, IRRIndexBuilder
        from repro.core.query import KBTIMQuery
        from repro.core.rr_index import RRIndex, RRIndexBuilder
        from repro.core.theta import ThetaPolicy
        from repro.profiles.generators import zipf_profiles
        from repro.profiles.topics import TopicSpace

        model = IndependentCascade(twitter_like(120, avg_degree=3, rng=71))
        profiles = zipf_profiles(120, TopicSpace.default(4), rng=72)
        policy = ThetaPolicy(epsilon=1.0, K=60, cap=12, min_theta=4)
        tables = RRIndexBuilder(model, profiles, policy=policy, rng=73).sample()
        RRIndexBuilder(model, profiles, policy=policy, rng=73).build(
            str(tmp_path / "f.rr"), tables=tables
        )
        IRRIndexBuilder(model, profiles, policy=policy, delta=5, rng=73).build(
            str(tmp_path / "f.irr"), tables=tables
        )
        query = KBTIMQuery(("music", "book"), 60)
        with IRRIndex(str(tmp_path / "f.irr")) as index:
            answer = query_like_reference(index, query)
            # Every vertex with a list under a query keyword is a
            # candidate (its clipped list may be empty: marginal 0).
            candidates = set()
            for kw in query.keywords:
                _ip, partitions = index.lookup(kw, 1)[0]
                for p in range(1, index._partition_info[kw][0]):
                    index._load_partition(kw, partitions, p)
                for partition in partitions:
                    candidates.update(partition[3].tolist())
        with RRIndex(str(tmp_path / "f.rr")) as rr:
            oracle = rr.query(query)
        assert 0 < len(candidates) < query.k
        assert answer.seeds == oracle.seeds
        assert answer.marginal_coverages == oracle.marginal_coverages

    def test_four_threads_on_one_server_answer_like_serial(self, irr_world):
        """Queries share the reader's cache and nothing else, so
        four threads through one server answer and read like one."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.irr_index import IRRIndex
        from repro.core.query import KBTIMQuery
        from repro.core.server import KBTIMServer

        queries = [
            KBTIMQuery(keywords, k)
            for keywords in self.SWEEP_KEYWORDS
            for k in (3, 10, 40)
        ] * 4
        with IRRIndex(irr_world[7]) as index:
            serial = [index.query(q) for q in queries]
        with KBTIMServer(IRRIndex(irr_world[7])) as server:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(server.query, queries))
        for one, other in zip(serial, threaded):
            assert one.seeds == other.seeds
            assert one.marginal_coverages == other.marginal_coverages
            assert one.stats.rr_sets_loaded == other.stats.rr_sets_loaded
            assert one.stats.partitions_loaded == other.stats.partitions_loaded
            assert one.stats.io.read_calls == other.stats.io.read_calls

    def test_memoised_decodes_are_read_only(self, irr_index_path):
        """Every query gets the same arrays out of the reader's cache —
        with and without a capacity — so a write must raise."""
        from repro.core.irr_index import IRRIndex
        from repro.core.query import KBTIMQuery

        for capacity in (0, 64):
            with IRRIndex(irr_index_path, prefix_cache_keywords=capacity) as index:
                # The engine only ever reads them (it copies before it
                # shifts ids into the merged space).
                index.query(KBTIMQuery(("music", "book"), 10))
                ip, partitions = index.lookup("music", 1)[0]
                later = index._load_partition("music", partitions, 1)[0]
                first = partitions[0]
                for array in (ip, *first, *later):
                    assert not array.flags.writeable
                with pytest.raises(ValueError):
                    index._load_partition("music", partitions, 1)[0][2][0] = 0
                with pytest.raises(ValueError):
                    first[2][0] = 0
                with pytest.raises(ValueError):
                    ip[0] = 0

    def test_work_counts_of_a_fixed_stream_are_pinned(
        self, irr_index_path, irr_world
    ):
        """What 64 seeded queries load and read, as three integers, and
        that every answer picks the RR reader's seeds in one read per
        partition loaded.

        Re-pinned from (818, 52181, 1821) when the confirm rule became
        Algorithm 2's: the top of a bound table over every unselected
        vertex is confirmed exactly when it is complete, so a tie goes to
        the smaller id even when settling it takes one more round — two
        more partitions over this stream.  Re-pinned from
        (820, 52261, 1825) when a load unit became one segment: a
        partition is one read and ``IP_w`` rides with partition 0, so
        reads equal partitions loaded.  Re-pinned from (820, 52261, 820)
        when a cover began to take a covered set off every member's
        bound, pending or not (a pending term is ``kb`` less the covered
        sets that hold the vertex), and a round began to load only the
        keywords the top candidate is pending under: tighter bounds
        settle sooner and a round skips keywords nobody waits on, so 96
        fewer partitions (and reads) and 1681 fewer RR sets, with the
        same seeds.  A faster engine must not get there by silently
        loading less.
        """
        from repro.core.irr_index import IRRIndex
        from repro.core.query import KBTIMQuery
        from repro.core.rr_index import RRIndex

        rng = np.random.default_rng(2215)
        partitions = rr_sets = read_calls = 0
        with IRRIndex(irr_index_path) as index, RRIndex(irr_world["rr"]) as rr:
            names = sorted(index.keywords())
            for _ in range(64):
                size = int(rng.integers(1, 6))
                picks = rng.choice(len(names), size=size, replace=False)
                k = int(rng.choice([1, 3, 10, 40, 50]))
                query = KBTIMQuery([names[i] for i in picks], k)
                answer = index.query(query)
                assert answer.seeds == rr.query(query).seeds, query
                assert answer.stats.io.read_calls == answer.stats.partitions_loaded
                partitions += answer.stats.partitions_loaded
                rr_sets += answer.stats.rr_sets_loaded
                read_calls += answer.stats.io.read_calls
        assert (partitions, rr_sets, read_calls) == PINNED_WORK_COUNTS

    def test_decode_cache_capacity_does_not_affect_results(
        self, irr_index_path
    ):
        """Cold (capacity 0) and warm caches answer identically."""
        from repro.core.irr_index import IRRIndex
        from repro.core.query import KBTIMQuery

        query = KBTIMQuery(("music", "book"), 10)
        with IRRIndex(irr_index_path, prefix_cache_keywords=0) as cold:
            a = cold.query(query)
            b = cold.query(query)  # second pass re-decodes everything
            assert len(cold.cache) == 0
        with IRRIndex(irr_index_path, prefix_cache_keywords=64) as warm:
            c = warm.query(query)
            d = warm.query(query)
        assert a.seeds == b.seeds == c.seeds == d.seeds
        assert (
            a.marginal_coverages
            == b.marginal_coverages
            == c.marginal_coverages
            == d.marginal_coverages
        )
        assert a.stats.rr_sets_loaded == d.stats.rr_sets_loaded
        assert a.stats.partitions_loaded == d.stats.partitions_loaded
