"""Diameter and peripheral-pair search on top of a completed radius search.

Both variants first bound the diameter from below by the largest distance
between pivots collected while finding the center, then discard every vertex
(or vertex pair) the triangle inequality proves incapable of beating that
bound. The matrix-backed variant scans the few surviving rows; the on-demand
variant orders pairs by potential distance through the center and stops at
the first pair that cannot improve the bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .radius import RadiusResult
from .sssp import DistanceMatrix, DistanceProvider


@dataclass(frozen=True)
class DiameterResult:
    diameter: float
    peripheral_pair: tuple[int, int]
    d_lower_trace: list[float]
    vertices_scanned: int
    pairs_checked: int
    sssp_count: int
    rows_accessed: int
    radius_result: RadiusResult


@dataclass(frozen=True)
class CandidateOrder:
    """Vertices sorted by distance to the center, descending (ties: smaller id)."""

    order: np.ndarray  # vertex ids
    sorted_dist: np.ndarray  # sorted_dist[k] = distance from order[k] to center


def build_candidate_order(center_dist: np.ndarray) -> CandidateOrder:
    n = center_dist.shape[0]
    order = np.lexsort((np.arange(n), -center_dist))
    return CandidateOrder(order=order, sorted_dist=center_dist[order])


def initial_lower_bound(
    pivots: list[int], provider: DistanceProvider
) -> tuple[float, tuple[int, int]]:
    """Largest distance over ordered pivot pairs; first achieving pair wins.

    Reads only the pivots' rows, which the radius search already holds.
    """
    best = -np.inf
    pair = (pivots[0], pivots[0])
    for a, p in enumerate(pivots):
        row = provider.row(p).dist
        for q in pivots[a + 1:]:
            v = float(row[q])
            if v > best:
                best = v
                pair = (p, q)
    return best, pair


def _result(
    provider: DistanceProvider,
    rr: RadiusResult,
    diameter: float,
    pair: tuple[int, int],
    trace: list[float],
    vertices_scanned: int = 0,
    pairs_checked: int = 0,
) -> DiameterResult:
    return DiameterResult(
        diameter=diameter,
        peripheral_pair=pair,
        d_lower_trace=trace,
        vertices_scanned=vertices_scanned,
        pairs_checked=pairs_checked,
        sssp_count=provider.sssp_count,
        rows_accessed=provider.rows_accessed,
        radius_result=rr,
    )


def _tiny_result(provider: DistanceProvider, rr: RadiusResult) -> DiameterResult:
    """n <= 2: the only pair is (0, n - 1), at distance 0 when n == 1."""
    last = provider.n - 1
    value = float(provider.row(0).dist[last])
    return _result(provider, rr, value, (0, last), [value])


def diameter_p2(
    matrix: DistanceMatrix,
    rr: RadiusResult,
    provider: DistanceProvider | None = None,
) -> DiameterResult:
    """Matrix-backed diameter search (Problem 2).

    Only rows of vertices farther than half the current lower bound from the
    center can contain a distance beating the bound; the half-bound filter is
    re-evaluated against the updated bound before each row is scanned.
    Every row is read through the provider, so its counters include them;
    without a provider, a fresh one over the matrix counts this search alone.
    """
    if provider is None:
        provider = DistanceProvider.from_matrix(matrix)
    if matrix.n <= 2:
        return _tiny_result(provider, rr)

    d_l, pair = initial_lower_bound(rr.pivots, provider)
    trace = [d_l]
    center_row = provider.row(rr.center).dist
    # Superset of survivors under the initial bound; the bound only grows.
    candidates = np.flatnonzero(center_row > d_l / 2.0)
    scanned = 0
    for i in candidates.tolist():
        if center_row[i] <= d_l / 2.0:
            continue
        row = provider.row(i).dist
        j = int(row.argmax())
        scanned += 1
        v = float(row[j])
        if v > d_l:
            d_l = v
            pair = (i, j)
            trace.append(d_l)
    return _result(provider, rr, d_l, pair, trace, vertices_scanned=scanned)


def diameter_p1(
    g: Graph, rr: RadiusResult, provider: DistanceProvider
) -> DiameterResult:
    """On-demand diameter search (Problem 1).

    Pairs are enumerated in descending order of their potential distance
    through the center (sum of the two center distances). A pair whose sum
    cannot beat the bound ends its row; if that happens on the first pair of
    a row, no later pair can improve and the search terminates.
    """
    n = g.n
    if n <= 2:
        return _tiny_result(provider, rr)

    center_row = provider.row(rr.center).dist
    co = build_candidate_order(center_row)
    order = co.order.tolist()
    sd = co.sorted_dist.tolist()

    d_l, pair = initial_lower_bound(rr.pivots, provider)
    trace = [d_l]
    pairs_checked = 0
    done = False
    for i in range(n - 1):
        if done:
            break
        k = order[i]
        dk = sd[i]
        for j in range(i + 1, n):
            pairs_checked += 1
            if dk + sd[j] <= d_l:
                if j == i + 1:
                    done = True  # best remaining sum failed: exact already
                break
            l = order[j]
            m_kl = float(provider.row(k).dist[l])  # k is the farther from the center
            if m_kl > d_l:
                d_l = m_kl
                pair = (k, l)
                trace.append(d_l)

    return _result(provider, rr, d_l, pair, trace, pairs_checked=pairs_checked)
