"""Tests for greedy maximum coverage (repro.core.coverage).

The key properties: the greedy kernel keeps brute force's guarantee on
small instances and is bit-identical to the seed greedy in
``tests/oracles.py`` — which is what makes Theorem 3 testable downstream.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.coverage import CoverageInstance, greedy_max_coverage
from repro.core.sampler import sample_rr_sets, sample_uniform_roots
from repro.graph.generators import twitter_like
from repro.propagation.ic import IndependentCascade

from oracles import seed_greedy_max_coverage


def make_instance(n, sets):
    return CoverageInstance(n, [np.asarray(s, dtype=np.int64) for s in sets])


def sets_of(instance: CoverageInstance, v: int) -> set:
    """The ids of the sets holding ``v``, from the inverted CSR."""
    ptr = instance.vtx_ptr
    return set(instance.vtx_sets[ptr[v] : ptr[v + 1]].tolist())


def brute_force_best(instance: CoverageInstance, k: int) -> int:
    """Optimal coverage value by exhaustive search."""
    best = 0
    for combo in combinations(range(instance.n_vertices), k):
        covered = set()
        for v in combo:
            covered |= sets_of(instance, v)
        best = max(best, len(covered))
    return best


class TestInstance:
    def test_counts(self):
        inst = make_instance(4, [[0, 1], [1, 2], [1]])
        assert inst.counts().tolist() == [1, 3, 1, 0]
        assert inst.n_sets == 3

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_instance(2, [[0, 5]])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            CoverageInstance(-1, [])

    def test_inverted_csr_is_derived_not_passed(self):
        sets = [np.array([0, 1]), np.array([1])]
        inst = CoverageInstance(3, sets)
        assert inst.vtx_ptr.tolist() == [0, 1, 3, 3]
        assert inst.vtx_sets.tolist() == [0, 0, 1]
        assert inst.counts().tolist() == [1, 2, 0]
        with pytest.raises(TypeError):
            CoverageInstance(3, sets, {0: np.array([0]), 1: np.array([0, 1])})

    def test_counts_is_fresh_per_call(self):
        """The kernel decrements its ``counts()`` in place; ours must not move."""
        inst = make_instance(4, [[0, 1], [1, 2], [1]])
        before = inst.counts()
        greedy_max_coverage(inst, 4)
        assert before.tolist() == inst.counts().tolist() == [1, 3, 1, 0]


class TestGreedy:
    def test_picks_dominating_vertex_first(self):
        inst = make_instance(4, [[0, 1], [1, 2], [1, 3], [0]])
        seeds, marginals = greedy_max_coverage(inst, 2)
        assert seeds[0] == 1
        assert marginals[0] == 3

    def test_marginal_counts_decrease(self):
        inst = make_instance(
            6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [1], [1, 4]]
        )
        _seeds, marginals = greedy_max_coverage(inst, 4)
        assert all(a >= b for a, b in zip(marginals, marginals[1:]))

    def test_total_coverage_never_exceeds_sets(self):
        inst = make_instance(5, [[0], [0, 1], [2], [2, 3]])
        _seeds, marginals = greedy_max_coverage(inst, 5)
        assert sum(marginals) <= inst.n_sets

    def test_paper_example2_optimum_is_e_f(self):
        """Example 2: sets {b,d,f}, {e}, {d,f}, {a,b,e}; {e,f} covers all 4.

        Greedy faces a four-way tie on the first pick (b, d, e, f all
        cover 2 sets) and our deterministic tie-break may land on a
        3-coverage pair — still within the (1 - 1/e) guarantee the RIS
        framework relies on.  The brute-force optimum is the paper's
        {e, f} with full coverage.
        """
        a, b, d, e, f = 0, 1, 3, 4, 5
        inst = make_instance(7, [[b, d, f], [e], [d, f], [a, b, e]])
        _seeds, marginals = greedy_max_coverage(inst, 2)
        assert sum(marginals) >= (1 - 1 / np.e) * 4
        assert brute_force_best(inst, 2) == 4
        # {e, f} specifically covers everything, as Example 2 states.
        assert len(sets_of(inst, e) | sets_of(inst, f)) == 4

    def test_k_larger_than_vertices(self):
        inst = make_instance(2, [[0], [1]])
        seeds, _ = greedy_max_coverage(inst, 10)
        assert sorted(seeds) == [0, 1]

    def test_zero_marginal_fills_smallest_ids(self):
        inst = make_instance(4, [[2]])
        seeds, marginals = greedy_max_coverage(inst, 3)
        assert seeds[0] == 2 and marginals[0] == 1
        assert seeds[1:] == [0, 1] and marginals[1:] == [0, 0]

    def test_tie_breaks_to_smallest_id(self):
        inst = make_instance(4, [[1], [3]])
        seeds, _ = greedy_max_coverage(inst, 1)
        assert seeds[0] == 1

    def test_bad_k_rejected(self):
        inst = make_instance(2, [[0]])
        with pytest.raises(ValueError):
            greedy_max_coverage(inst, 0)

    def test_no_sets_at_all(self):
        inst = make_instance(3, [])
        seeds, marginals = greedy_max_coverage(inst, 2)
        assert seeds == [0, 1] and marginals == [0, 0]


@st.composite
def coverage_cases(draw):
    """``(n_vertices, sets, k)`` with empty sets, repeated sets, tied
    counts (few vertices, many sets) and ``k`` past ``n_vertices``."""
    n = draw(st.integers(0, 12))
    members = st.integers(0, n - 1) if n else st.nothing()
    sets = draw(
        st.lists(st.lists(members, max_size=n, unique=True).map(sorted), max_size=12)
    )
    if sets:
        sets = sets + draw(st.lists(st.sampled_from(sets), max_size=4))
    return n, sets, draw(st.integers(1, n + 3))


def assert_greedy_invariants(n, sets, k):
    """Oracle equality plus the invariants the kernel's shortcuts rely on."""
    inst = make_instance(n, sets)
    seeds, marginals = greedy_max_coverage(inst, k)
    assert (seeds, marginals) == seed_greedy_max_coverage(n, sets, k)
    assert len(seeds) == len(marginals) == min(k, n)
    assert all(type(x) is int for x in seeds + marginals)
    assert all(a >= b for a, b in zip(marginals, marginals[1:]))
    # Each pick's marginal is the number of sets it newly covered — what
    # makes dropping the ``selected`` mask sound (a picked vertex's live
    # count is 0 afterwards).
    covered = set()
    for seed, marginal in zip(seeds, marginals):
        fresh = {i for i, rr in enumerate(sets) if seed in rr} - covered
        assert marginal == len(fresh)
        covered |= fresh
    assert sum(marginals) == len(covered)
    # Zero-marginal fillers: the smallest unpicked ids, ascending.
    n_real = sum(1 for m in marginals if m > 0)
    picked = set(seeds[:n_real])
    unpicked = [v for v in range(n) if v not in picked]
    assert seeds[n_real:] == unpicked[: len(seeds) - n_real]


class TestKernelMatchesOracle:
    def test_one_greedy(self):
        """``lazy_greedy_max_coverage`` survives only as a binding."""
        assert repro.lazy_greedy_max_coverage is repro.greedy_max_coverage

    def test_identical_on_fixed_instance(self):
        sets = [[0, 1, 2], [2, 3], [3, 4, 5], [5, 6], [6, 7], [0, 7], [1, 3, 5]]
        for k in (1, 2, 3, 8):
            assert_greedy_invariants(8, sets, k)

    @pytest.mark.parametrize(
        "n, sets, k",
        [
            pytest.param(3, [[0, 1], [0, 1], [2], [2]], 3, id="duplicate-sets"),
            pytest.param(3, [[], [1], []], 2, id="empty-sets"),
            pytest.param(4, [[0], [1], [2], [3]], 4, id="all-tied-smallest-id-wins"),
            pytest.param(4, [[0, 1], [0, 1], [0], [2]], 3, id="vertex-all-covered"),
            pytest.param(5, [[3], [1, 3]], 5, id="k-past-positive-counts"),
            pytest.param(2, [[0], [1]], 10, id="k-above-n-vertices"),
            pytest.param(0, [[], []], 3, id="no-vertices"),
            pytest.param(3, [], 2, id="no-sets"),
        ],
    )
    def test_invariants_on_edge_cases(self, n, sets, k):
        assert_greedy_invariants(n, sets, k)

    @settings(max_examples=150, deadline=None)
    @given(coverage_cases())
    def test_invariants_on_random_instances(self, case):
        assert_greedy_invariants(*case)

    def test_offline_sized_instance(self):
        """≥ 50 k sets / ≥ 200 k incidences: the size ``ris.py`` and
        ``wris.py`` run the kernel at (equality only, no timing)."""
        model = IndependentCascade(twitter_like(2000, avg_degree=12, rng=77))
        rng = np.random.default_rng(78)
        roots = sample_uniform_roots(model.graph.n, 100_000, rng)
        flat = sample_rr_sets(model, roots, rng)
        inst = CoverageInstance(model.graph.n, flat)
        assert inst.n_sets >= 50_000 and inst.set_vertices.size >= 200_000
        assert greedy_max_coverage(inst, 50) == seed_greedy_max_coverage(
            model.graph.n, list(flat), 50
        )

    def test_bad_k_rejected(self):
        inst = make_instance(2, [[0]])
        with pytest.raises(ValueError):
            greedy_max_coverage(inst, -1)


class TestApproximationGuarantee:
    """Greedy coverage >= (1 - 1/e) * OPT — step S3 of the proof sketch."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 8), st.data())
    def test_factor_against_brute_force(self, n, data):
        n_sets = data.draw(st.integers(1, 10))
        sets = [
            data.draw(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=n, unique=True
                ).map(sorted)
            )
            for _ in range(n_sets)
        ]
        inst = make_instance(n, sets)
        k = data.draw(st.integers(1, min(3, n)))
        _seeds, marginals = greedy_max_coverage(inst, k)
        achieved = sum(marginals)
        optimal = brute_force_best(inst, k)
        assert achieved >= (1 - 1 / np.e) * optimal - 1e-9
