"""Single-source shortest paths and the distance-provider contract.

A distance row is a plain float64 array of length n with row[source] == 0;
its source is whatever the caller asked for. The provider hides whether rows
come from an on-demand Dijkstra run (Problem 1) or from a precomputed
all-pairs matrix (Problem 2), and keeps usage statistics so searches can
report how little of the graph they touched.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from typing import NamedTuple

import numpy as np

from .graph import Graph


class DisconnectedGraphError(RuntimeError):
    """Raised when a shortest-path run leaves some vertex unreachable."""

    def __init__(self, source: int, vertex: int):
        self.source = source
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is unreachable from vertex {source}")


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense n x n shortest-path distances (zero diagonal, symmetric)."""

    n: int
    values: np.ndarray


# Average degree (2m/n) from which sssp relaxes a settled vertex's arcs with
# numpy instead of one by one in Python. Below it numpy's fixed cost per call
# outweighs the arcs it relaxes. Per SSSP on a 2-core x86 machine the Python
# loop took 0.3x the numpy time at degree 8, 0.7x at degree 49 and 0.8-1.0x
# at degree 64; numpy won from degree 72-88 on (1.3x at degree 127).
SPARSE_DEGREE_CUT = 64.0


class CsrLists(NamedTuple):
    """A graph's CSR arrays as Python lists, for the arc-by-arc relaxation."""

    indptr: list[int]
    indices: list[int]
    weights: list[float]


def csr_lists(g: Graph) -> CsrLists | None:
    """The list view sssp relaxes g over, or None when g is dense enough
    for the vectorized relaxation (which then needs no lists)."""
    if g.average_degree >= SPARSE_DEGREE_CUT:
        return None
    return CsrLists(g.indptr.tolist(), g.indices.tolist(), g.weights.tolist())


def sssp(g: Graph, source: int, lists: CsrLists | None = None) -> np.ndarray:
    """Distances from source to every vertex, as a float64 array with
    row[source] == 0: Dijkstra with a binary heap (lazy deletion) over the
    CSR adjacency.

    Sparse graphs relax arc by arc over `lists`, csr_lists(g); a caller that
    runs many searches on one graph passes the view in so that it is built
    once. Dense graphs run sssp_vectorized. Both produce the same distances
    bit for bit.
    """
    if lists is None:
        lists = csr_lists(g)
    if lists is None:
        return sssp_vectorized(g, source)
    n = g.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    indptr, indices, weights = lists
    dist = [inf] * n
    dist[source] = 0.0
    done = [False] * n
    remaining = n
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        remaining -= 1
        if remaining == 0:
            break
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            dv = d + weights[i]
            if dv < dist[v]:
                dist[v] = dv
                heappush(heap, (dv, v))
    if remaining:
        raise DisconnectedGraphError(source, done.index(False))
    return np.array(dist)


def sssp_vectorized(g: Graph, source: int) -> np.ndarray:
    """Dijkstra with a binary heap (lazy deletion) over the CSR adjacency.

    Relaxation of each settled vertex's neighborhood is vectorized, which
    keeps dense graphs cheap without changing the produced distances. The
    oracle's apsp_repeated_sssp runs this function, so it is the reference
    the arc-by-arc relaxation in sssp is checked against.
    """
    n = g.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    remaining = n
    heap = [(0.0, source)]
    indptr, indices, weights = g.indptr, g.indices, g.weights
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        remaining -= 1
        if remaining == 0:
            break
        lo, hi = indptr[u], indptr[u + 1]
        nbrs = indices[lo:hi]
        cand = d + weights[lo:hi]
        better = cand < dist[nbrs]
        if better.any():
            upd = nbrs[better]
            vals = cand[better]
            dist[upd] = vals
            for v, dv in zip(upd.tolist(), vals.tolist()):
                heappush(heap, (dv, v))
    if remaining:
        raise DisconnectedGraphError(source, int(np.flatnonzero(~done)[0]))
    return dist


def eccentricity(row: np.ndarray) -> tuple[float, int]:
    """Max entry of the row and the smallest vertex id achieving it."""
    argmax = int(row.argmax())  # argmax returns the first (smallest) id
    return float(row[argmax]), argmax


class DistanceProvider:
    """Unified row access for Problems 1 and 2 with access accounting.

    row(source) returns the distance array from source. On-demand mode
    computes rows by Dijkstra and caches them for the provider's lifetime
    (no eviction), building the graph's list view for sssp once, on the
    first miss; matrix-backed mode hands out views values[source] of a
    precomputed DistanceMatrix, cached the same way. rows_accessed counts
    every row read, sssp_count only rows actually computed.
    """

    def __init__(self, graph: Graph | None = None, matrix: DistanceMatrix | None = None):
        if (graph is None) == (matrix is None):
            raise ValueError("provide exactly one of graph or matrix")
        self._graph = graph
        self._matrix = matrix
        self._cache: dict[int, np.ndarray] = {}
        self._lists: CsrLists | None = None  # stays None for dense graphs
        self.sssp_count = 0
        self.rows_accessed = 0

    @classmethod
    def on_demand(cls, graph: Graph) -> "DistanceProvider":
        return cls(graph=graph)

    @classmethod
    def from_matrix(cls, matrix: DistanceMatrix) -> "DistanceProvider":
        return cls(matrix=matrix)

    @property
    def n(self) -> int:
        return self._graph.n if self._graph is not None else self._matrix.n

    def row(self, source: int) -> np.ndarray:
        self.rows_accessed += 1
        cached = self._cache.get(source)
        if cached is not None:
            return cached
        if self._matrix is not None:
            row = self._matrix.values[source]
        else:
            if self._lists is None:
                self._lists = csr_lists(self._graph)
            row = sssp(self._graph, source, self._lists)
            self.sssp_count += 1
        self._cache[source] = row
        return row
