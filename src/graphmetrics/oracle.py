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
# 3.2 GB. floyd_warshall holds one such array plus one FW_BLOCK_BYTES block.
MATRIX_CAP = 20_000

# Bytes of each block of candidate sums floyd_warshall forms at once: at most
# FW_BLOCK_BYTES // (8 n) rows, and at least one. A block and the rows of D
# it updates, 1 MiB together, stay in a 2 MiB L2 cache. Per build (complete
# graphs, seed 0, best of 2 to 30, two series, 2-core x86 with 2 MiB of L2
# per core):
# - n = 120: one block, 1.9 to 2.0 ms (64 rows 2.1 to 2.2 ms);
# - n = 300: 218 rows, 21 to 23 ms; 64 rows and one block were level with it;
# - n = 1000: 65 rows, 0.78 to 0.98 s (128 rows 0.96 to 1.17 s);
# - n = 1500: 43 rows, 2.8 to 3.2 s, level with 64 rows (128 rows 4.4 s).
FW_BLOCK_BYTES = 512 * 1024


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

    Step k forms every candidate D[i, k] + D[k, j] as the rank-2 product
    [D[:, k], 1] @ [1; D[k, :]], one BLAS call per block of rows (see
    FW_BLOCK_BYTES), and keeps the smaller of each candidate and D[i, j].
    Both product terms are exact (x * 1 and 1 * y) and both sums are
    non-negative, so however BLAS orders the sum, with or without a fused
    multiply-add, each entry is rounded once and holds the bits of
    D[i, k] + D[k, j]; the matrix is that of the textbook broadcast add, bit
    for bit, and symmetric bit for bit. Row k and column k do not change
    during step k (D[k, k] is +0.0), so they are copied once per step and
    the blocks are updated in place.

    The step loop runs under one errstate(invalid="ignore"), entered once
    per build: BLAS padding lanes can compute 0 * inf when D holds inf,
    which sets the invalid flag but changes no entry. No sum overflows on a
    graph that passed the weight rules of from_arcs and generate, which
    keep 4 * n * w_max finite (graph._edge_weights).

    A disconnected graph raises DisconnectedGraphError naming the smallest
    vertex unreachable from vertex 0, as sssp from vertex 0 does.
    """
    n = g.n
    D = _matrix(n)
    D.fill(np.inf)
    np.fill_diagonal(D, 0.0)
    D[np.repeat(np.arange(n), np.diff(g.indptr)), g.indices] = g.weights
    col = np.ones((n, 2))  # column 0 holds D[:, k]
    row = np.ones((2, n))  # row 1 holds D[k, :]
    rows = max(1, FW_BLOCK_BYTES // D[0].nbytes)
    tmp = np.empty((min(n, rows), n))  # one block of candidates, reused
    with np.errstate(invalid="ignore"):
        for k in range(n):
            col[:, 0] = D[:, k]
            row[1] = D[k]
            for lo in range(0, n, rows):
                block = D[lo:lo + rows]
                sums = tmp[:len(block)]
                _sums(col[lo:lo + rows], row, sums)
                np.minimum(block, sums, out=block)
    _checked(D[0], 0)  # undirected: some entry is inf exactly when row 0 holds one
    return DistanceMatrix(D)


def _sums(col: np.ndarray, row: np.ndarray, out: np.ndarray) -> None:
    """out = col @ row, under the caller's error state: one call per block,
    so a test can see the block sizes floyd_warshall uses."""
    np.matmul(col, row, out=out)


def scan_radius(M: DistanceMatrix) -> tuple[float, int]:
    """Trivial radius scan: minimum over rows of the row maximum (RC2)."""
    row_max = M.values.max(axis=1)
    c = int(row_max.argmin())
    return float(row_max[c]), c


def scan_diameter(M: DistanceMatrix) -> tuple[float, tuple[int, int]]:
    """Trivial diameter scan over the matrix (DC2): the matrix maximum and
    the first pair holding it, sorted so that a < b.

    A matrix built by Dijkstra with float weights can hold d(a, b) and
    d(b, a) one ulp apart, so the maximum may sit below the diagonal only;
    it is reported as found, whichever direction holds it. The maximum
    lies on the diagonal only when every entry is 0, and then (0, 1) holds
    it too.
    """
    flat = int(M.values.argmax())
    i, j = divmod(flat, M.n)
    if i == j and M.n > 1:
        i, j = 0, 1
    return float(M.values[i, j]), (min(i, j), max(i, j))


def scan_metrics(M: DistanceMatrix) -> OracleMetrics:
    """Exhaustive scan: radius, diameter and ALL centers / peripheral pairs.

    The diameter is the matrix maximum. The peripheral pairs are every
    unordered pair (a, b), a < b, whose larger direction max(M[a, b],
    M[b, a]) equals it, in ascending order. One vertex has the single
    pair (0, 0), as scan_diameter and both diameter searches report.
    """
    values = M.values
    row_max = values.max(axis=1)
    radius = float(row_max.min())
    centers = np.flatnonzero(row_max == radius).tolist()
    diameter = float(row_max.max())
    hit = values == diameter
    hit |= hit.T  # either direction of a pair may hold the maximum
    ii, jj = np.nonzero(hit)
    # with n > 1 some off-diagonal entry holds the maximum, so the list is
    # empty only on one vertex
    pairs = [(a, b) for a, b in zip(ii.tolist(), jj.tolist()) if a < b] or [(0, 0)]
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
