"""Single-source shortest paths and the distance-provider contract.

The provider hides whether distance rows come from an on-demand Dijkstra run
(Problem 1) or from a precomputed all-pairs matrix (Problem 2), and keeps
usage statistics so searches can report how little of the graph they touched.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .graph import Graph


class DisconnectedGraphError(RuntimeError):
    """Raised when a shortest-path run leaves some vertex unreachable."""

    def __init__(self, source: int, vertex: int):
        self.source = source
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is unreachable from vertex {source}")


class DistanceRow(NamedTuple):
    """Shortest-path distances from one source; dist[source] == 0."""

    source: int
    dist: np.ndarray


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense n x n shortest-path distances (zero diagonal, symmetric)."""

    n: int
    values: np.ndarray


def sssp(g: Graph, source: int) -> DistanceRow:
    """Dijkstra with a binary heap (lazy deletion) over the CSR adjacency.

    Relaxation of each settled vertex's neighborhood is vectorized, which
    keeps dense graphs cheap without changing the produced distances.
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
    return DistanceRow(source=source, dist=dist)


def eccentricity(row: DistanceRow) -> tuple[float, int]:
    """Max entry of the row and the smallest vertex id achieving it."""
    argmax = int(row.dist.argmax())  # argmax returns the first (smallest) id
    return float(row.dist[argmax]), argmax


class DistanceProvider:
    """Unified row access for Problems 1 and 2 with access accounting.

    On-demand mode computes rows by Dijkstra and caches them for the
    provider's lifetime (no eviction); matrix-backed mode reads rows from a
    precomputed DistanceMatrix. rows_accessed counts every row read,
    sssp_count only rows actually computed.
    """

    def __init__(self, graph: Graph | None = None, matrix: DistanceMatrix | None = None):
        if (graph is None) == (matrix is None):
            raise ValueError("provide exactly one of graph or matrix")
        self._graph = graph
        self._matrix = matrix
        self._cache: dict[int, DistanceRow] = {}
        self.sssp_count = 0
        self.rows_accessed = 0

    @classmethod
    def on_demand(cls, graph: Graph) -> "DistanceProvider":
        return cls(graph=graph)

    @classmethod
    def from_matrix(cls, matrix: DistanceMatrix) -> "DistanceProvider":
        return cls(matrix=matrix)

    @property
    def mode(self) -> str:
        return "on-demand" if self._matrix is None else "matrix-backed"

    @property
    def n(self) -> int:
        return self._graph.n if self._graph is not None else self._matrix.n

    def row(self, source: int) -> DistanceRow:
        self.rows_accessed += 1
        cached = self._cache.get(source)
        if cached is not None:
            return cached
        if self._matrix is not None:
            # positional: building the tuple by keyword costs more than the view
            row = DistanceRow(source, self._matrix.values[source])
        else:
            row = sssp(self._graph, source)
            self.sssp_count += 1
        self._cache[source] = row
        return row
