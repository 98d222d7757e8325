"""Tests for graph statistics (repro.graph.stats)."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import ring_digraph
from repro.graph.stats import (
    in_degree_histogram,
    log_binned_histogram,
    summarize,
)


class TestSummarize:
    def test_table2_row(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        s = summarize(g)
        assert s.n_users == 4
        assert s.n_edges == 4
        assert s.avg_degree == pytest.approx(1.0)
        assert s.max_in_degree == 2  # vertex 3
        assert s.max_out_degree == 2  # vertex 0

    def test_empty_graph(self):
        s = summarize(DiGraph.from_edges(0, []))
        assert s.max_in_degree == 0 and s.avg_degree == 0.0


class TestHistograms:
    def test_ring_all_degree_one(self):
        degrees, counts = in_degree_histogram(ring_digraph(6))
        assert degrees.tolist() == [1]
        assert counts.tolist() == [6]

    def test_mixed_degrees(self):
        g = DiGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        degrees, counts = in_degree_histogram(g)
        assert dict(zip(degrees.tolist(), counts.tolist())) == {0: 3, 3: 1}

    def test_total_mass_is_n(self):
        g = DiGraph.from_edges(5, [(0, 1), (2, 1), (3, 4)])
        _d, counts = in_degree_histogram(g)
        assert counts.sum() == g.n


class TestLogBinning:
    def test_preserves_total_count(self):
        degrees = np.array([1, 2, 3, 10, 100, 1000])
        counts = np.array([5, 4, 3, 2, 1, 1])
        _centers, binned = log_binned_histogram(degrees, counts)
        assert binned.sum() == counts.sum()

    def test_drops_degree_zero(self):
        degrees = np.array([0, 1, 2])
        counts = np.array([7, 1, 1])
        _centers, binned = log_binned_histogram(degrees, counts)
        assert binned.sum() == 2

    def test_centers_monotone(self):
        degrees = np.arange(1, 500)
        counts = np.ones_like(degrees)
        centers, _binned = log_binned_histogram(degrees, counts)
        assert np.all(np.diff(centers) > 0)

    def test_empty_input(self):
        centers, binned = log_binned_histogram(np.array([]), np.array([]))
        assert len(centers) == 0 and len(binned) == 0

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            log_binned_histogram(np.array([1]), np.array([1]), bins_per_decade=0)
