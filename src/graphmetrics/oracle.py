"""Brute-force baselines: repeated-Dijkstra APSP, Floyd-Warshall and full
matrix scans. These are the ground truth for property tests and the slow side
of every speedup measurement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .sssp import DistanceMatrix, _checked, sssp, sssp_vectorized

# The largest n of any distance matrix built here: 20 000^2 float64 is
# 3.2 GB, and floyd_warshall holds two such arrays.
MATRIX_CAP = 20_000


@dataclass(frozen=True)
class OracleMetrics:
    radius: float
    all_centers: list[int]
    diameter: float
    all_peripheral_pairs: list[tuple[int, int]]


def _matrix(n: int) -> np.ndarray:
    """An uninitialised n x n float64 array; MemoryError when n is above MATRIX_CAP."""
    if n > MATRIX_CAP:
        raise MemoryError(f"distance matrix refused: n={n} exceeds cap {MATRIX_CAP}")
    return np.empty((n, n))


def _repeated(g: Graph, kernel) -> DistanceMatrix:
    """All-pairs distances as one kernel(g, source) row per vertex."""
    rows = _matrix(g.n)
    for i in range(g.n):
        rows[i] = kernel(g, i)
    return DistanceMatrix(rows)


def apsp_repeated_sssp(g: Graph) -> DistanceMatrix:
    """All-pairs distances as one Dijkstra run per vertex.

    It runs the vectorized relaxation whatever the graph's degree, so that
    the rows sssp returns are checked against separate code.
    """
    return _repeated(g, sssp_vectorized)


def dijkstra_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs distances as one sssp run per vertex, on the fast kernel."""
    return _repeated(g, sssp)


def floyd_warshall(g: Graph) -> DistanceMatrix:
    """Classic triple-loop APSP, vectorized over the inner two indices.

    A disconnected graph raises DisconnectedGraphError naming the smallest
    vertex unreachable from vertex 0, as sssp from vertex 0 does.
    """
    n = g.n
    D = _matrix(n)
    D.fill(np.inf)
    np.fill_diagonal(D, 0.0)
    D[np.repeat(np.arange(n), np.diff(g.indptr)), g.indices] = g.weights
    tmp = np.empty_like(D)  # one temporary for every step
    for k in range(n):
        np.add(D[:, k, None], D[None, k, :], out=tmp)
        np.minimum(D, tmp, out=D)
    _checked(D[0], 0)  # undirected: some entry is inf exactly when row 0 holds one
    return DistanceMatrix(D)


def scan_radius(M: DistanceMatrix) -> tuple[float, int]:
    """Trivial radius scan: minimum over rows of the row maximum (RC2)."""
    row_max = M.values.max(axis=1)
    c = int(row_max.argmin())
    return float(row_max[c]), c


def scan_diameter(M: DistanceMatrix) -> tuple[float, tuple[int, int]]:
    """Trivial diameter scan over the matrix (DC2).

    The flat maximum equals the upper-triangle maximum: the diagonal is zero,
    entries are non-negative and the matrix is symmetric.
    """
    flat = int(M.values.argmax())
    i, j = divmod(flat, M.n)
    if i > j:
        i, j = j, i
    return float(M.values[i, j]), (i, j)


def scan_metrics(M: DistanceMatrix) -> OracleMetrics:
    """Exhaustive scan: radius, diameter and ALL centers / peripheral pairs."""
    values = M.values
    row_max = values.max(axis=1)
    radius = float(row_max.min())
    centers = np.flatnonzero(row_max == radius).tolist()
    if M.n == 1:
        diameter = 0.0
        pairs: list[tuple[int, int]] = []
    else:
        diameter = float(row_max.max())
        ii, jj = np.nonzero(values == diameter)
        pairs = [(int(a), int(b)) for a, b in zip(ii, jj) if a < b]
    return OracleMetrics(
        radius=radius,
        all_centers=centers,
        diameter=diameter,
        all_peripheral_pairs=pairs,
    )


def choose_baseline(g: Graph) -> str:
    """The APSP builder: "floyd" when the average degree is above n/4, else "dijkstra"."""
    return "floyd" if g.average_degree > g.n / 4.0 else "dijkstra"


def build_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs distances from the builder choose_baseline picks."""
    if choose_baseline(g) == "floyd":
        return floyd_warshall(g)
    return dijkstra_matrix(g)
