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
# 3.2 GB. floyd_warshall holds one such array plus a FW_BLOCK-row block.
MATRIX_CAP = 20_000

# Rows of each block of candidate sums floyd_warshall forms at once, so that
# a block and the rows of D it updates stay in cache. Per build (complete
# graphs, seed 0, best of 1 to 30, 2-core x86 with 2 MiB of L2 per core):
# - n = 120: 64 rows 2.95 ms; 128 or more rows (one block) 1.7 to 1.9 ms;
# - n = 300: 64 / 128 / 192 / 256 rows 22.5 / 18.9 / 17.2 / 18.0 ms;
# - n = 1000: 0.82 / 0.83 / 1.20 / 1.34 s (the broadcast add took 2.4 s);
# - n = 1500: 64 / 128 rows 3.0 / 4.4 s, as 128 rows outgrow the cache.
FW_BLOCK = 128


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
    [D[:, k], 1] @ [1; D[k, :]], one BLAS call per FW_BLOCK rows, and keeps
    the smaller of each candidate and D[i, j]. Both product terms are exact
    (x * 1 and 1 * y) and both sums are non-negative, so however BLAS orders
    the sum, with or without a fused multiply-add, each entry is rounded once
    and holds the bits of D[i, k] + D[k, j]; the matrix is that of the
    textbook broadcast add, bit for bit, and symmetric bit for bit. Row k
    and column k do not change during step k (D[k, k] is +0.0), so they are
    copied once per step and the blocks are updated in place.

    The product runs under errstate(over, invalid = ignore). BLAS padding
    lanes can compute 0 * inf when D holds inf, which sets the invalid flag
    but changes no entry; an overflowed sum is inf, as the add gives, and
    never beats a finite D[i, j].

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
    tmp = np.empty((min(n, FW_BLOCK), n))  # one block of candidates, reused
    for k in range(n):
        col[:, 0] = D[:, k]
        row[1] = D[k]
        for lo in range(0, n, FW_BLOCK):
            block = D[lo:lo + FW_BLOCK]
            sums = tmp[:len(block)]
            _sums(col[lo:lo + FW_BLOCK], row, sums)
            np.minimum(block, sums, out=block)
    _checked(D[0], 0)  # undirected: some entry is inf exactly when row 0 holds one
    return DistanceMatrix(D)


@np.errstate(over="ignore", invalid="ignore")  # why: see floyd_warshall
def _sums(col: np.ndarray, row: np.ndarray, out: np.ndarray) -> None:
    """out = col @ row. As a decorator the errstate costs about 0.6 us per
    call; a `with np.errstate(...)` block costs about 2 us, 0.24 ms of a
    1.7 ms build at n = 120."""
    np.matmul(col, row, out=out)


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
