"""Synthetic power-law graph suite.

The paper evaluates on nine real-world SNAP/LAW graphs (62 K to 5 M
vertices).  Those datasets are not available offline, so we synthesize
power-law graphs with the same *roles*: matching names, the same
vertex-count ordering, approximately the original average degrees, and a
Zipf-skewed in-degree distribution (the "power-law degree distribution"
property Section 7.1 credits for Locality-Aware's wins on medium graphs).
Vertex counts are scaled down 16x, the same factor by which the default
experiment machine scales the last-level cache — preserving the
footprint-to-LLC ratio that drives every locality result.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.util.rng import make_rng
from repro.workloads.graph.graph import CsrGraph


@dataclass(frozen=True)
class GraphSpec:
    """One synthetic stand-in for a paper graph."""

    name: str
    n_vertices: int  # scaled (original / 16)
    avg_degree: float
    original_vertices: int
    skew: float = 0.65  # Zipf rank exponent (~power-law count exponent 2.5)


#: The nine graphs of Figures 2 and 8, in ascending vertex-count order
#: (the order the paper sorts its x-axes by).  Original vertex counts from
#: the SNAP / LAW dataset descriptions; scaled counts are original / 16 —
#: the same factor by which the default machine scales its caches, so the
#: footprint-to-LLC ratio of every graph matches the paper's.
GRAPH_SUITE: Dict[str, GraphSpec] = {
    spec.name: spec
    for spec in (
        GraphSpec("p2p-Gnutella31", 3_910, 2.4, 62_586),
        GraphSpec("soc-Slashdot0811", 4_835, 11.7, 77_360),
        GraphSpec("web-Stanford", 17_620, 8.2, 281_903),
        GraphSpec("amazon-2008", 45_960, 7.0, 735_323),
        GraphSpec("frwiki-2013", 84_440, 25.4, 1_350_986),
        GraphSpec("wiki-Talk", 149_650, 2.1, 2_394_385),
        GraphSpec("cit-Patents", 235_920, 4.4, 3_774_768),
        GraphSpec("soc-LiveJournal1", 302_970, 14.2, 4_847_571),
        GraphSpec("ljournal-2008", 335_200, 14.7, 5_363_260),
    )
}


#: Maximum fraction of all edges pointing at a single vertex.  Real social
#: graphs have a head cutoff (soc-LiveJournal1's top in-degree is ~0.03% of
#: all edges); an uncapped Zipf head would oversubscribe one cache block
#: with atomic updates, which no real input of the paper does.
MAX_TARGET_SHARE = 0.0005


def zipf_targets(rng: np.random.Generator, n_vertices: int, count: int,
                 skew: float, max_share: float = MAX_TARGET_SHARE) -> np.ndarray:
    """Draw ``count`` vertex ids with a Zipf(``skew``) popularity bias.

    Low ids are "celebrities" with very high in-degree; the heavy tail gives
    most vertices only a handful of incoming edges.  The head of the
    distribution is capped at ``max_share`` of the total mass.  Sampling by
    inverse transform over a truncated Zipf CDF keeps generation vectorized.
    """
    ranks = np.arange(1, n_vertices + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    # Cap the head at max_share of the mass, but never below ~20x the
    # average share, so small graphs keep a visible power-law head.
    cap = max(max_share, 20.0 / n_vertices) * weights.sum()
    weights = np.minimum(weights, cap)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(count)
    ids = bucketed_searchsorted(cdf, draws)
    # Shuffle identity -> vertex id mapping deterministically so popular
    # vertices are spread over the address space rather than clustered.
    perm = rng.permutation(n_vertices)
    return perm[ids]


def bucketed_searchsorted(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Exactly ``np.searchsorted(cdf, draws, side="left")``, for a
    non-decreasing ``cdf`` that ends at 1.0 and ``draws`` in [0, 1).

    With ``K`` a power of two, ``d * K`` and ``j / K`` are exact floats,
    so a draw ``d`` in bucket ``j = int(d * K)`` satisfies
    ``j / K <= d < (j + 1) / K`` and its answer lies in
    ``[edges[j], edges[j + 1]]``, where ``edges`` is the search of every
    bucket boundary.  A vectorized binary search inside those ranges
    finishes in a step or two because ``K`` is two to four times
    ``len(cdf)``.
    """
    n_buckets = 1 << (2 * len(cdf)).bit_length()
    index = np.int32 if n_buckets < 1 << 31 else np.int64
    edges = np.searchsorted(cdf, np.arange(n_buckets + 1) / n_buckets,
                            side="left").astype(index)
    bucket = (draws * n_buckets).astype(index)
    lo = edges[bucket]
    hi = edges[bucket + 1]
    for _ in range(int(np.diff(edges).max()).bit_length()):
        mid = (lo + hi) >> 1
        below = cdf[mid] < draws
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def trim_out_degrees(out_degrees: np.ndarray, excess: int,
                     rng: np.random.Generator) -> None:
    """Remove ``excess`` edges in place, one per draw, from vertices of
    out-degree > 1 chosen uniformly (stopping early if none is left).

    The candidate list is built once and kept sorted, so each draw indexes
    exactly what a fresh ``np.flatnonzero(out_degrees > 1)`` would return;
    a vertex leaves it when its degree reaches 1.
    """
    candidates = np.flatnonzero(out_degrees > 1).tolist()
    for _ in range(excess):
        if not candidates:
            break
        pos = int(rng.integers(0, len(candidates)))
        vertex = candidates[pos]
        out_degrees[vertex] -= 1
        if out_degrees[vertex] == 1:
            del candidates[pos]


def generate_power_law_graph(
    n_vertices: int,
    avg_degree: float,
    seed: int = 42,
    skew: float = 0.65,
) -> CsrGraph:
    """Generate a directed graph with Zipf-skewed in-degrees."""
    if n_vertices <= 1:
        raise ValueError(f"need at least two vertices, got {n_vertices}")
    if avg_degree <= 0:
        raise ValueError(f"average degree must be positive, got {avg_degree}")
    rng = make_rng(seed, "power-law", n_vertices)
    n_edges = max(1, int(round(n_vertices * avg_degree)))
    # Out-degrees: lightly skewed (geometric-ish) around the average.
    raw = rng.exponential(scale=avg_degree, size=n_vertices)
    out_degrees = np.maximum(1, np.round(raw * (n_edges / max(raw.sum(), 1e-9)))).astype(
        np.int64
    )
    # Adjust to hit the exact edge count.
    diff = n_edges - int(out_degrees.sum())
    if diff > 0:
        bump = rng.integers(0, n_vertices, size=diff)
        np.add.at(out_degrees, bump, 1)
    elif diff < 0:
        trim_out_degrees(out_degrees, -diff, rng)
    # Vertex v's edges are the next out_degrees[v] draws, so the draws are
    # already in CSR order.
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(out_degrees, out=indptr[1:])
    targets = zipf_targets(rng, n_vertices, int(indptr[-1]), skew)
    weights = rng.integers(1, 16, size=int(indptr[-1]), dtype=np.int64)
    return CsrGraph(indptr, targets, weights)


_SUITE_CACHE: Dict[tuple, CsrGraph] = {}


def make_suite_graph(name: str, seed: int = 42) -> CsrGraph:
    """Generate the synthetic stand-in for one of the paper's nine graphs.

    Graphs are memoized by (name, seed): they are read-only inputs, and the
    benchmark harness re-instantiates workloads for every configuration.
    """
    if name not in GRAPH_SUITE:
        raise KeyError(f"unknown graph '{name}'; choose from {sorted(GRAPH_SUITE)}")
    key = (name, seed)
    graph = _SUITE_CACHE.get(key)
    if graph is None:
        spec = GRAPH_SUITE[name]
        graph = generate_power_law_graph(
            spec.n_vertices, spec.avg_degree, seed=seed, skew=spec.skew
        )
        _SUITE_CACHE[key] = graph  # simflow: ignore[RCE005] -- idempotent per-process memo keyed by (name, seed); every process computes the identical graph
    return graph
