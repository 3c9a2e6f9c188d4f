"""Tests for the CSR graph and the synthetic graph suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.graph import generators
from repro.workloads.graph.generators import (
    GRAPH_SUITE,
    generate_power_law_graph,
    make_suite_graph,
    trim_out_degrees,
    zipf_targets,
)
from repro.workloads.graph.graph import CsrGraph


class TestCsrGraph:
    def test_from_edges(self):
        g = CsrGraph.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert g.n_vertices == 3
        assert g.n_edges == 3
        assert list(g.successors(0)) == [1, 2]
        assert list(g.successors(1)) == [2]
        assert list(g.successors(2)) == []

    def test_out_degrees(self):
        g = CsrGraph.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert list(g.out_degrees()) == [2, 1, 0]
        assert g.out_degree(0) == 2

    def test_weights_follow_edge_order(self):
        g = CsrGraph.from_edges(2, [1, 0], [0, 1], weights=[7, 3])
        # After stable sort by source: edge 0->1 weight 3, edge 1->0 weight 7.
        assert g.weights[g.indptr[0]] == 3
        assert g.weights[g.indptr[1]] == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 2]), np.array([0]))  # indptr mismatch
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 1]), np.array([5]))  # target out of range
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 2, 1]), np.array([0, 0]))  # decreasing

    def test_symmetrized_has_both_directions(self):
        g = CsrGraph.from_edges(3, [0], [1]).symmetrized()
        assert 1 in g.successors(0)
        assert 0 in g.successors(1)

    def test_symmetrized_dedupes(self):
        g = CsrGraph.from_edges(2, [0, 1], [1, 0]).symmetrized()
        assert g.n_edges == 2  # 0->1 and 1->0, no duplicates

    def test_repr(self):
        assert "3 vertices" in repr(CsrGraph.from_edges(3, [0], [1]))

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=50))
    def test_from_edges_preserves_multiset(self, edges):
        sources = [s for s, _ in edges]
        targets = [t for _, t in edges]
        g = CsrGraph.from_edges(10, sources, targets)
        rebuilt = sorted(
            (int(s), int(t))
            for s in range(10)
            for t in g.successors(s)
        )
        assert rebuilt == sorted(edges)


class TestGenerators:
    def test_edge_count_matches_average_degree(self):
        g = generate_power_law_graph(1000, 8.0, seed=1)
        assert g.n_edges == 8000

    def test_deterministic(self):
        a = generate_power_law_graph(500, 4.0, seed=7)
        b = generate_power_law_graph(500, 4.0, seed=7)
        assert np.array_equal(a.indices, b.indices)

    def test_seed_changes_graph(self):
        a = generate_power_law_graph(500, 4.0, seed=1)
        b = generate_power_law_graph(500, 4.0, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_in_degrees_are_skewed(self):
        g = generate_power_law_graph(2000, 8.0, seed=3)
        in_degrees = np.bincount(g.indices, minlength=2000)
        # Power law: the top percentile has far more than the median.
        assert np.max(in_degrees) > 10 * max(1, np.median(in_degrees))

    def test_head_share_capped(self):
        g = generate_power_law_graph(20_000, 10.0, seed=3)
        in_degrees = np.bincount(g.indices, minlength=20_000)
        # No single vertex receives more than ~0.1% of all edges
        # (MAX_TARGET_SHARE plus sampling noise).
        assert np.max(in_degrees) < 0.002 * g.n_edges

    def test_has_weights(self):
        g = generate_power_law_graph(100, 4.0)
        assert g.weights is not None
        assert g.weights.min() >= 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            generate_power_law_graph(1, 4.0)
        with pytest.raises(ValueError):
            generate_power_law_graph(100, 0.0)


def rescan_trim(out_degrees, excess, rng):
    """Reference: the original trim, rescanning the candidates per draw."""
    for _ in range(excess):
        candidates = np.flatnonzero(out_degrees > 1)
        if len(candidates) == 0:
            break
        out_degrees[candidates[rng.integers(0, len(candidates))]] -= 1


class TestTrimOutDegrees:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=40),
           st.integers(0, 120), st.integers(0, 2**32 - 1))
    def test_matches_rescan(self, degrees, excess, seed):
        fast = np.array(degrees, dtype=np.int64)
        slow = fast.copy()
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        trim_out_degrees(fast, excess, fast_rng)
        rescan_trim(slow, excess, slow_rng)
        assert np.array_equal(fast, slow)
        # Same draws with the same bounds: the streams agree from here on.
        assert fast_rng.integers(0, 2**62) == slow_rng.integers(0, 2**62)

    def test_suite_graph_unchanged(self, monkeypatch):
        """End to end on a suite graph whose rounding overshoots the edge
        count, so the trim runs: the CSR arrays match the rescan's."""
        spec = GRAPH_SUITE["p2p-Gnutella31"]
        args = (spec.n_vertices, spec.avg_degree, 1, spec.skew)
        trims = []

        def spy(out_degrees, excess, rng):
            trims.append(excess)
            trim_out_degrees(out_degrees, excess, rng)

        monkeypatch.setattr(generators, "trim_out_degrees", spy)
        fast = generate_power_law_graph(*args)
        monkeypatch.setattr(generators, "trim_out_degrees", rescan_trim)
        slow = generate_power_law_graph(*args)
        assert trims and trims[0] > 100
        for name in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))


class TestSuite:
    def test_nine_graphs(self):
        assert len(GRAPH_SUITE) == 9

    def test_sorted_by_vertex_count(self):
        # Figures 2 and 8 order their x-axes by ascending vertex count.
        counts = [spec.n_vertices for spec in GRAPH_SUITE.values()]
        assert counts == sorted(counts)

    def test_scaled_16x_from_originals(self):
        for spec in GRAPH_SUITE.values():
            assert spec.n_vertices == pytest.approx(spec.original_vertices / 16,
                                                    rel=0.02)

    def test_table3_graphs_present(self):
        for name in ("soc-Slashdot0811", "frwiki-2013", "soc-LiveJournal1"):
            assert name in GRAPH_SUITE

    def test_make_suite_graph(self):
        g = make_suite_graph("soc-Slashdot0811")
        spec = GRAPH_SUITE["soc-Slashdot0811"]
        assert g.n_vertices == spec.n_vertices

    def test_unknown_graph_rejected(self):
        with pytest.raises(KeyError):
            make_suite_graph("not-a-graph")


class TestZipfTargets:
    def test_range(self):
        rng = np.random.default_rng(0)
        ids = zipf_targets(rng, 100, 1000, 0.65)
        assert ids.min() >= 0
        assert ids.max() < 100

    def test_count(self):
        rng = np.random.default_rng(0)
        assert len(zipf_targets(rng, 50, 321, 0.65)) == 321
