"""Diameter and peripheral-pair search on top of a completed radius search.

Both variants start the lower bound at d(p1, p2) = ecc(p1), where (p1, p2)
is rr.far_pair, the pair the radius search's farthest-vertex walk ended on (the
double-sweep bound of Magnien, Latapy & Habib, JEA 2009), then scan whole
rows, one read each, of the vertices the triangle inequality through the
center cannot rule out. The matrix-backed variant scans every vertex
farther than half the bound from the center. The on-demand variant visits
vertices in descending center distance (iFUB order) and stops at the first
position where the two largest remaining center distances sum to no more
than the bound. It also bounds every vertex from above by the rows it
already holds, ecc(k) <= d(x, k) + ecc(x) for each held row x, and passes
over a vertex without an SSSP where that bound cannot beat the current
lower bound. One or two vertices need no special case: (p1, p2) is then the
only pair, and neither scan finds a distance that beats it.

Both report the peripheral pair (k, l) with the distance d(k, l) read from
row k. With float weights the same shortest path summed from l can differ by
one ulp, so an all-pairs oracle whose maximum takes the pair from the other
end may differ from the reported diameter in the last bit. Integer weights
sum exactly, and the two agree. For the same reason the held-row bound is
exact with integer weights; with float weights it can, like the center-sum
stop, pass over a pair that beats the lower bound only by summation-order
ulps.

find_diameter runs the variant the provider's backing picks. Neither reads
its first argument: it stays so that the benchmark worker's calls keep
working, until ROADMAP item 5 drops it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .radius import RadiusResult
from .sssp import DistanceMatrix, DistanceProvider, eccentricity


@dataclass(frozen=True)
class DiameterResult:
    diameter: float
    peripheral_pair: tuple[int, int]
    d_lower_trace: list[float]
    vertices_scanned: int
    vertices_bounded: int  # passed over by the held-row bound, without an SSSP
    pairs_checked: int
    sssp_count: int
    rows_accessed: int


def build_candidate_order(center_dist: np.ndarray) -> np.ndarray:
    """Vertex ids by distance to the center, descending (ties: smaller id)."""
    return np.argsort(-center_dist, kind="stable")


def find_diameter(rr: RadiusResult, provider: DistanceProvider) -> DiameterResult:
    """D after rr, on rr's provider: D2 if it is matrix-backed, else D1."""
    if provider.matrix is not None:
        return diameter_p2(provider.matrix, rr, provider)
    return diameter_p1(provider.graph, rr, provider)


def diameter_p2(
    matrix: DistanceMatrix,
    rr: RadiusResult,
    provider: DistanceProvider,
) -> DiameterResult:
    """Matrix-backed diameter search (Problem 2).

    The lower bound starts at d(p1, p2) for the radius search's far pair
    (p1, p2) = rr.far_pair. Only rows of vertices farther than half the
    current lower bound from the center can contain a distance beating the
    bound; the half-bound filter is re-evaluated against the updated bound
    before each row is scanned. Every row is read through the provider, so
    its counters include them. matrix is not read.
    """
    p1, p2 = pair = rr.far_pair
    d_l = float(provider.row(p1)[p2])
    trace = [d_l]
    center_row = provider.row(rr.center)
    # Superset of survivors under the initial bound; the bound only grows.
    candidates = np.flatnonzero(center_row > d_l / 2.0)
    scanned = 0
    for i in candidates.tolist():
        if center_row[i] <= d_l / 2.0:
            continue
        row = provider.row(i)
        j = int(row.argmax())
        scanned += 1
        v = float(row[j])
        if v > d_l:
            d_l = v
            pair = (i, j)
            trace.append(d_l)
    return DiameterResult(
        diameter=d_l, peripheral_pair=pair, d_lower_trace=trace,
        vertices_scanned=scanned, vertices_bounded=0, pairs_checked=0,
        sssp_count=provider.sssp_count, rows_accessed=provider.rows_accessed,
    )


# An overflowed sum row + ecc is inf, which never beats a finite label and
# only weakens a bound.
@np.errstate(over="ignore")
def diameter_p1(
    g: Graph, rr: RadiusResult, provider: DistanceProvider
) -> DiameterResult:
    """On-demand diameter search (Problem 1).

    The lower bound starts at d(p1, p2) for the radius search's far pair
    (p1, p2) = rr.far_pair. Vertices are visited in descending distance
    from the center, as in iFUB (Crescenzi et al., TCS 2013). Each visited
    vertex's whole row is read once and its maximum raises the bound, which
    settles every pair that vertex is in. Any two vertices not yet visited
    are at most sd[i] + sd[i + 1] apart (triangle inequality through the
    center), so the scan stops at the first position where that sum cannot
    beat the bound.
    Every row the provider holds, from the radius search or from this scan,
    bounds each vertex k from above by ub[k] = min over held x of
    d(x, k) + ecc(x) (Takes & Kosters, Algorithms 2013). A vertex whose row
    is not held and whose ub cannot beat the bound is passed over without
    an SSSP: its row could not raise the bound. g is not read.
    """
    n = provider.n
    center_row = provider.row(rr.center)
    ids = build_candidate_order(center_row)
    order, sd = ids.tolist(), center_row[ids].tolist()

    # (ecc, farthest vertex) of each held row, each maximum taken once
    far: dict[int, tuple[float, int]] = {}
    ub = np.full(n, np.inf)

    def hold(x: int, row: np.ndarray) -> None:
        far[x] = eccentricity(row)
        np.minimum(ub, row + far[x][0], out=ub)

    for x, row in provider.held_rows().items():
        hold(x, row)

    p1, p2 = pair = rr.far_pair
    d_l = float(provider.row(p1)[p2])
    trace = [d_l]
    pairs_checked = scanned = bounded = 0
    for i in range(n - 1):
        pairs_checked += 1
        if sd[i] + sd[i + 1] <= d_l:
            break
        k = order[i]
        if k in far:
            provider.row(k)  # held: a read without an SSSP
        elif ub[k] <= d_l:
            bounded += 1
            continue
        else:
            hold(k, provider.row(k))
        scanned += 1
        v, l = far[k]
        if v > d_l:
            d_l = v
            pair = (k, l)
            trace.append(d_l)

    return DiameterResult(
        diameter=d_l, peripheral_pair=pair, d_lower_trace=trace,
        vertices_scanned=scanned, vertices_bounded=bounded,
        pairs_checked=pairs_checked, sssp_count=provider.sssp_count,
        rows_accessed=provider.rows_accessed,
    )
