"""Tests for the CSR digraph (repro.graph.digraph)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.digraph import DiGraph


def triangle() -> DiGraph:
    return DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_counts(self):
        g = triangle()
        assert g.n == 3 and g.m == 3

    def test_empty_graph(self):
        g = DiGraph.from_edges(4, [])
        assert g.n == 4 and g.m == 0
        assert g.average_degree() == 0.0

    def test_zero_vertices(self):
        g = DiGraph.from_edges(0, [])
        assert g.n == 0 and g.m == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(0, 1), (0, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 2)])
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(-1, 0)])

    def test_rejects_bad_prob_shape(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(0, 1), (1, 2)], probs=[0.5])

    def test_rejects_prob_out_of_unit_interval(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 1)], probs=[1.5])


class TestDefaultProbabilities:
    def test_weighted_cascade_one_over_indegree(self):
        # b has in-degree 2 -> both incoming edges carry 0.5.
        g = DiGraph.from_edges(3, [(0, 2), (1, 2)])
        assert g.edge_probability(0, 2) == pytest.approx(0.5)
        assert g.edge_probability(1, 2) == pytest.approx(0.5)

    def test_unique_in_edge_gets_probability_one(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        assert g.edge_probability(0, 1) == pytest.approx(1.0)

    def test_explicit_probs_respected(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], probs=[0.25, 0.75])
        assert g.edge_probability(0, 1) == pytest.approx(0.25)
        assert g.edge_probability(1, 2) == pytest.approx(0.75)


class TestAdjacency:
    def test_out_neighbors_sorted(self):
        g = DiGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert g.out_neighbors(0).tolist() == [1, 2, 3]

    def test_in_neighbors_sorted(self):
        g = DiGraph.from_edges(4, [(3, 0), (1, 0), (2, 0)])
        assert g.in_neighbors(0).tolist() == [1, 2, 3]

    def test_degrees(self):
        g = triangle()
        assert g.out_degrees()[0] == 1 and g.in_degree(0) == 1
        assert g.in_degrees().tolist() == [1, 1, 1]
        assert g.out_degrees().tolist() == [1, 1, 1]

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphError):
            triangle().out_neighbors(3)

    def test_has_edge(self):
        g = triangle()
        assert 1 in g.out_neighbors(0).tolist()
        assert 0 not in g.out_neighbors(1).tolist()

    def test_edge_probability_missing_edge(self):
        with pytest.raises(GraphError):
            triangle().edge_probability(1, 0)


class TestOutProbAlignment:
    def test_out_probs_match_in_probs(self):
        g = DiGraph.from_edges(
            4, [(0, 1), (0, 2), (1, 2), (3, 2), (2, 1)],
            probs=[0.1, 0.2, 0.3, 0.4, 0.5],
        )
        for v in range(4):
            neighbors = g.out_neighbors(v)
            probs = g.out_prob[g.out_ptr[v] : g.out_ptr[v + 1]]
            for u, p in zip(neighbors, probs):
                assert g.edge_probability(v, int(u)) == pytest.approx(float(p))

    def test_out_prob_cached(self):
        g = triangle()
        assert g.out_prob is g.out_prob


class TestEdgesIteration:
    def test_edges_roundtrip(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
        g = DiGraph.from_edges(3, edges)
        seen = {(u, v) for u, v, _p in g.edges()}
        assert seen == set(edges)

    def test_edge_count_matches_m(self):
        g = triangle()
        assert len(list(g.edges())) == g.m


class TestEquality:
    def test_equal_graphs(self):
        assert triangle() == triangle()

    def test_different_probs_not_equal(self):
        a = DiGraph.from_edges(2, [(0, 1)], probs=[0.5])
        b = DiGraph.from_edges(2, [(0, 1)], probs=[0.7])
        assert a != b

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(triangle())

    def test_repr_mentions_sizes(self):
        assert "n=3" in repr(triangle())


class TestCSRInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 25), st.data())
    def test_random_graphs_are_consistent(self, n, data):
        possible = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = data.draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=60)
        )
        g = DiGraph.from_edges(n, edges)
        assert g.m == len(edges)
        # ptr arrays span all edges
        assert g.out_ptr[-1] == g.m and g.in_ptr[-1] == g.m
        # every edge is found in both directions of the CSR
        for u, v in edges:
            assert v in g.out_neighbors(u).tolist()
            assert u in g.in_neighbors(v).tolist()
        # per-vertex probability mass: sum over in-edges equals 1 when
        # using default weighted-cascade probabilities and in_degree > 0
        for v in range(n):
            probs = g.in_prob[g.in_ptr[v] : g.in_ptr[v + 1]]
            if len(probs):
                assert probs.sum() == pytest.approx(1.0)
