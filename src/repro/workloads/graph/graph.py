"""Compressed-sparse-row graphs for the graph workloads."""

from typing import Optional

import numpy as np


class CsrGraph:
    """A directed graph in CSR form (out-edges).

    ``indptr`` has ``n + 1`` entries; the successors of vertex ``v`` are
    ``indices[indptr[v]:indptr[v+1]]``.  Optional per-edge ``weights`` are
    used by SSSP.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: Optional[np.ndarray] = None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr does not describe indices")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= len(indptr) - 1):
            raise ValueError("edge target out of range")
        self.indptr = indptr
        self.indices = indices
        self.weights = None if weights is None else np.asarray(weights, dtype=np.int64)
        if self.weights is not None and len(self.weights) != len(indices):
            raise ValueError("weights must align with indices")

    @classmethod
    def from_edges(cls, n_vertices: int, sources: np.ndarray, targets: np.ndarray,
                   weights: Optional[np.ndarray] = None) -> "CsrGraph":
        """Build a CSR graph from an edge list (kept in input order per source)."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        targets = targets[order]
        counts = np.bincount(sources, minlength=n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.int64)[order]
        return cls(indptr, targets, w)

    @property
    def n_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def out_degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def successors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def symmetrized(self) -> "CsrGraph":
        """Return the undirected version (each edge mirrored, self-dedup'd).

        Successors come out sorted by (source, target): one sort of the
        ``source * n + target`` keys over the edges and their mirrors,
        with adjacent duplicates dropped.
        """
        n = self.n_vertices
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        keys = np.concatenate([sources * n + self.indices,
                               self.indices * n + sources])
        keys.sort()
        if len(keys):
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        all_src, all_dst = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_src, minlength=n), out=indptr[1:])
        return CsrGraph(indptr, all_dst)

    def __repr__(self) -> str:
        return f"CsrGraph({self.n_vertices} vertices, {self.n_edges} edges)"
