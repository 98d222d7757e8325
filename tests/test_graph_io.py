"""Tests for graph persistence (repro.graph.io)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import twitter_like
from repro.graph.io import load_npz, save_npz


@pytest.fixture()
def sample_graph() -> DiGraph:
    return DiGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], probs=[0.1, 0.9, 1.0, 0.5, 0.25]
    )


class TestNpz:
    def test_roundtrip(self, sample_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(sample_graph, path)
        assert load_npz(path) == sample_graph

    def test_roundtrip_generated_graph(self, tmp_path):
        g = twitter_like(150, 6, rng=9)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded == g
        assert np.array_equal(loaded.out_dst, g.out_dst)

    def test_version_check(self, sample_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(sample_graph, path)
        data = dict(np.load(path))
        data["format_version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(GraphError, match="version"):
            load_npz(path)
