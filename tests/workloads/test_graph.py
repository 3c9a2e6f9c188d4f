"""Tests for the CSR graph and the synthetic graph suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import make_rng
from repro.workloads.graph import generators
from repro.workloads.graph.generators import (
    GRAPH_SUITE,
    MAX_TARGET_SHARE,
    bucketed_searchsorted,
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


def unique_symmetrized(graph):
    """Reference: the original ``np.unique``-based symmetrization."""
    sources = np.repeat(np.arange(graph.n_vertices, dtype=np.int64),
                        np.diff(graph.indptr))
    all_src = np.concatenate([sources, graph.indices])
    all_dst = np.concatenate([graph.indices, sources])
    keys = all_src * graph.n_vertices + all_dst
    _, unique_idx = np.unique(keys, return_index=True)
    return CsrGraph.from_edges(graph.n_vertices, all_src[unique_idx],
                               all_dst[unique_idx])


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "weights"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


@st.composite
def edge_lists(draw):
    """(n, sources, targets) with duplicates, self-loops, mirrored pairs,
    isolated vertices and empty edge lists all in reach."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    if edges:
        picked = draw(st.lists(st.sampled_from(edges), max_size=10))
        edges = draw(st.permutations(
            edges + picked + [(t, s) for s, t in picked]))
    return n, [s for s, _ in edges], [t for _, t in edges]


class TestSymmetrizedMatchesUnique:
    @settings(max_examples=80, deadline=None)
    @given(edge_lists())
    def test_edge_lists(self, case):
        graph = CsrGraph.from_edges(*case)
        assert_same_csr(graph.symmetrized(), unique_symmetrized(graph))

    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("name", ["soc-Slashdot0811", "web-Stanford"])
    def test_suite_graphs(self, name, seed):
        graph = make_suite_graph(name, seed)
        assert_same_csr(graph.symmetrized(), unique_symmetrized(graph))


def zipf_cdf(n_vertices, skew, max_share=MAX_TARGET_SHARE):
    """The capped Zipf CDF ``zipf_targets`` searches."""
    weights = np.arange(1, n_vertices + 1, dtype=np.float64) ** (-skew)
    cap = max(max_share, 20.0 / n_vertices) * weights.sum()
    cdf = np.cumsum(np.minimum(weights, cap))
    return cdf / cdf[-1]


def searchsorted_zipf_targets(rng, n_vertices, count, skew):
    """Reference: the original ``zipf_targets``, one plain searchsorted."""
    cdf = zipf_cdf(n_vertices, skew)
    ids = np.searchsorted(cdf, rng.random(count), side="left")
    return rng.permutation(n_vertices)[ids]


class TestZipfSearchMatchesSearchsorted:
    @pytest.mark.parametrize("n, count, skew, seed", [
        (2, 500, 0.65, 1), (3, 1000, 0.0, 2), (100, 5000, 0.65, 3),
        (1024, 20_000, 0.0, 4), (5000, 50_000, 1.2, 5),
        (17_620, 100_000, 0.65, 42),
    ])
    def test_seeded_cases(self, n, count, skew, seed):
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = zipf_targets(fast_rng, n, count, skew)
        slow = searchsorted_zipf_targets(slow_rng, n, count, skew)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)
        assert fast_rng.integers(0, 2**62) == slow_rng.integers(0, 2**62)

    @pytest.mark.parametrize("n, skew", [
        (2, 0.65), (7, 0.65), (1000, 0.65), (4096, 0.0), (3000, 1.2)])
    def test_draws_on_and_beside_boundaries(self, n, skew):
        """Draws at, and one ulp either side of, every cdf value and every
        bucket boundary ``j / K`` for each power of two ``K`` near 4n."""
        cdf = zipf_cdf(n, skew)
        bits = (4 * n).bit_length()
        bounds = [np.arange(k + 1) / k
                  for k in (1 << b for b in range(bits - 3, bits + 3))]
        points = np.concatenate([cdf, *bounds])
        draws = np.concatenate([points, np.nextafter(points, 0.0),
                                np.nextafter(points, 1.0)])
        draws = draws[(draws >= 0.0) & (draws < 1.0)]
        assert np.array_equal(bucketed_searchsorted(cdf, draws),
                              np.searchsorted(cdf, draws, side="left"))


def reference_power_law_graph(n_vertices, avg_degree, seed, skew):
    """Reference: the original generator, with the plain-searchsorted
    targets and ``from_edges`` over the repeated sources."""
    rng = make_rng(seed, "power-law", n_vertices)
    n_edges = max(1, int(round(n_vertices * avg_degree)))
    raw = rng.exponential(scale=avg_degree, size=n_vertices)
    out_degrees = np.maximum(1, np.round(raw * (n_edges / max(raw.sum(), 1e-9)))).astype(
        np.int64
    )
    diff = n_edges - int(out_degrees.sum())
    if diff > 0:
        np.add.at(out_degrees, rng.integers(0, n_vertices, size=diff), 1)
    elif diff < 0:
        trim_out_degrees(out_degrees, -diff, rng)
    sources = np.repeat(np.arange(n_vertices, dtype=np.int64), out_degrees)
    targets = searchsorted_zipf_targets(rng, n_vertices, len(sources), skew)
    weights = rng.integers(1, 16, size=len(sources), dtype=np.int64)
    return CsrGraph.from_edges(n_vertices, sources, targets, weights)


class TestGeneratorMatchesReference:
    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("name", ["p2p-Gnutella31", "soc-Slashdot0811"])
    def test_suite_specs(self, name, seed):
        spec = GRAPH_SUITE[name]
        args = (spec.n_vertices, spec.avg_degree, seed, spec.skew)
        assert_same_csr(generate_power_law_graph(*args),
                        reference_power_law_graph(*args))

    def test_more_vertices_than_edges(self):
        # Every vertex keeps one out-edge, so the trim stops early and the
        # graph has more edges than asked for.
        args = (200, 0.5, 3, 0.65)
        graph = generate_power_law_graph(*args)
        assert graph.n_edges == 200
        assert_same_csr(graph, reference_power_law_graph(*args))


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
