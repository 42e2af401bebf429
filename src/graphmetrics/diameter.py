"""Diameter and peripheral-pair search on top of a completed radius search.

Both variants start the lower bound at d(p1, p2) = ecc(p1), where (p1, p2)
is rr.far_pair, the pair the radius search's farthest-vertex walk ended on (the
double-sweep bound of Magnien, Latapy & Habib, JEA 2009), then scan whole
rows, one read each, of the vertices the triangle inequality through the
center cannot rule out. The matrix-backed variant scans every vertex
farther than half the bound from the center. The on-demand variant visits
vertices in descending center distance (iFUB order) and stops at the first
position where the two largest remaining center distances sum to no more
than the bound. It first settles every row the provider already holds:
their maxima raise the bound, and those rows are not read again. Then every
held row x bounds each pair of vertices not yet settled, d(k, l) <= d(x, k)
+ d(x, l) (Takes & Kosters, Algorithms 2013), and a visited vertex is
passed over without an SSSP when the held rows bound all its pairs with
the vertices still unsettled by the current lower bound. One or two
vertices need no special case: (p1, p2) is then the only pair, and neither
scan finds a distance that beats it.

Both report the peripheral pair (k, l) with the distance d(k, l) read from
row k. With float weights the same shortest path summed from l can differ by
one ulp, so an all-pairs oracle whose maximum takes the pair from the other
end may differ from the reported diameter in the last bit. Integer weights
sum exactly, and the two agree. For the same reason the held-row pair bound
is exact with integer weights; with float weights it can, like the
center-sum stop, pass over a pair that beats the lower bound only by
summation-order ulps.

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
    # D1: vertices passed over without an SSSP by the held-row pair bound;
    # the rows held at D1's start are settled, not re-read, and not counted
    vertices_bounded: int
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


def diameter_p1(
    g: Graph, rr: RadiusResult, provider: DistanceProvider
) -> DiameterResult:
    """On-demand diameter search (Problem 1).

    The lower bound starts at d(p1, p2) for the radius search's far pair
    (p1, p2) = rr.far_pair. R is the set of vertices not yet settled, where
    a vertex is settled once every pair it is in is known to be at most the
    bound or has raised it.
    - Every row the provider holds at the start settles its vertex: the
      bound rises to the largest of their maxima, taking the pair from that
      row only when it beats d(p1, p2), and those rows are not read again.
    - The other vertices are visited in descending distance from the
      center, as in iFUB (Crescenzi et al., TCS 2013). Any two vertices not
      yet visited are at most sd[i] + sd[i + 1] apart (triangle inequality
      through the center), so the scan stops at the first position where
      that sum cannot beat the bound.
    - A visited vertex k leaves R without an SSSP when the pair bound, min
      over the held rows x (those held at the start and those this scan
      has read) of d(x, k) + max{d(x, l) : l in R, l != k}, is at most the
      bound: it bounds d(k, l) for every l in R (Takes & Kosters,
      Algorithms 2013). Otherwise its row is read, its maximum raises the
      bound, and the row joins the held rows. The pair bound is at most
      min over x of d(x, k) + ecc(x), the eccentricity bound, so it passes
      over every vertex that one would.
    Why the pair bound is enough: k is the first vertex of R in iFUB order,
    so R without k is what stays unsettled once k leaves. A pair whose other
    end has left R is settled already: by that end's row maximum, or by the
    bound that passed over that end while k was still in R. R only shrinks
    and the bound only rises, so a pair bounded once stays bounded.

    g is not read. No sum of two distances overflows on a graph that passed
    the weight rules of from_arcs and generate, which keep 4 * n * w_max
    finite (graph._edge_weights).

    The rows held at the start are copied once into one array, whose
    columns of vertices out of R are set to -inf, so a pair test over them
    is one argmax. A row read here is not copied: its farthest vertex in R
    is kept, and found again, in a temporary of one row, at the first pair
    test after that vertex has left R.
    """
    n = provider.n
    center_row = provider.row(rr.center)
    ids = build_candidate_order(center_row)
    order, sd = ids.tolist(), center_row[ids].tolist()
    p1, p2 = pair = rr.far_pair
    d_l = float(provider.row(p1)[p2])
    trace = [d_l]

    held = provider.held_rows()
    sources = list(held)
    block = np.array(list(held.values()))  # block[j, l] = d(sources[j], l)
    at = np.arange(len(sources))
    top = block.argmax(axis=1)  # the smallest id of each row's maximum
    ecc = block[at, top]
    j = int(ecc.argmax())  # the first row holding the largest maximum
    if ecc[j] > d_l:
        d_l = float(ecc[j])
        pair = (sources[j], int(top[j]))
        trace.append(d_l)
    in_r = np.ones(n, dtype=bool)
    in_r[sources] = False
    block[:, sources] = -np.inf
    # Rows read here, each with its farthest vertex in R and that distance.
    rows: list[np.ndarray] = []
    far_l: list[int] = []
    far_d: list[float] = []

    pairs_checked = scanned = bounded = 0
    for i in range(n - 1):
        pairs_checked += 1
        if sd[i] + sd[i + 1] <= d_l:
            break
        k = order[i]
        if not in_r[k]:  # held at the start: settled
            continue
        in_r[k] = False
        d_k = block[:, k].copy()
        block[:, k] = -np.inf
        for j, l in enumerate(far_l):
            if not in_r[l]:
                rest = np.where(in_r, rows[j], -np.inf)
                far_l[j] = l = int(rest.argmax())
                far_d[j] = float(rest[l])
        far = block[at, block.argmax(axis=1)]  # max over R per row; -inf once R is empty
        own = [row[k] + d for row, d in zip(rows, far_d)]
        if min((d_k + far).tolist() + own) <= d_l:
            bounded += 1
            continue
        row = provider.row(k)
        scanned += 1
        v, l = eccentricity(row)
        rows.append(row)
        far_l.append(k)  # k is out of R: found at the next pair test
        far_d.append(0.0)
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
