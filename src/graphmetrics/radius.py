"""Pivot-driven center and radius search.

A small set of pivot vertices bounds every vertex's eccentricity from below
(max distance to any pivot). find_radius keeps these bounds in one array,
the elementwise maximum of the pivot rows, and repeatedly verifies the
candidate center with the smallest bound until the lower and upper radius
bounds meet, touching only a small fraction of the graph's distance rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sssp import DisconnectedGraphError, DistanceProvider, eccentricity


def far_pair(provider: DistanceProvider) -> tuple[tuple[int, int], np.ndarray, list[int]]:
    """Find two mutually remote vertices by the farthest-vertex walk.

    The walk starts at provider.walk_start and repeatedly jumps to the
    farthest vertex (smallest id on ties) until it reaches a vertex it has
    already walked; that vertex and the last one are the pair. Every step
    but the last walks a new vertex, so the walk reads each row once, reads
    at most n rows, and holds both returned rows, but for vertex 1 of the
    pair (0, 1) returned when every distance is 0 ((0, 0) on one vertex).

    Returns the pair, the elementwise maximum of the rows walked (a fresh
    array: each entry bounds its vertex's eccentricity from below) and the
    walked vertices in the order their rows were read.

    A disconnected graph raises DisconnectedGraphError from vertex 0's row,
    as every other search does, wherever the walk starts: one more SSSP,
    on a graph with no answer.

    Where d(u, v) = d(v, u) exactly (integer weights whose path sums stay
    below 2**53), the revisited vertex is always the one two steps back,
    from any start. Write v[i] for the walk's i-th vertex, so ecc(v[i]) =
    d(v[i], v[i+1]). ecc never falls along the walk: ecc(v[i+1]) >=
    d(v[i+1], v[i]) = ecc(v[i]). So on a loop of the walk ecc is constant,
    each vertex is a farthest vertex from the next one, and the smallest-id
    rule gives v[i+2] <= v[i] all round the loop. A loop of three or more
    distinct vertices makes that strict, and following it round gives
    v[i] < v[i].
    """
    cur = provider.walk_start
    try:
        row = provider.row(cur)
    except DisconnectedGraphError:
        if cur:
            provider.row(0)  # raises too, naming the smallest vertex 0 cannot reach
        raise
    bound = row.copy()  # a view would write into a matrix
    walked = [cur]
    while True:
        _, nxt = eccentricity(row)
        if nxt == cur:  # every distance is 0; any start but 0 has a positive arc
            return (0, min(1, provider.n - 1)), bound, walked
        if nxt in walked:
            return (cur, nxt), bound, walked
        walked.append(nxt)
        cur = nxt
        row = provider.row(cur)
        np.maximum(bound, row, out=bound)


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    center: int
    far_pair: tuple[int, int]  # where the far-pair walk ended; d(p1, p2) = ecc(p1)
    pivots: list[int]  # the walk's vertices, then each new farthest vertex of a candidate
    sssp_count: int
    rows_accessed: int
    bound_trace: list[tuple[float, float]]  # (r_lower, r_upper) after each candidate

    @property
    def candidates_examined(self) -> int:
        return len(self.bound_trace)


def find_radius(provider: DistanceProvider) -> RadiusResult:
    """Exact radius and one center via pivot bounds and candidate checks.

    bound[v] is the largest distance from v to any pivot so far, a lower
    bound on ecc(v) (Takes & Kosters, Algorithms 2013). The pivots start as
    every vertex the far-pair walk read, whose rows far_pair hands over
    already folded into bound, so no walk row is read again or thrown away.
    Loop: pick the unexamined vertex with the smallest bound, verify its
    true eccentricity (tightening the upper bound), and if the bounds have
    not met, read the row of its farthest vertex, unless that vertex is a
    pivot already, and add it as a new pivot.

    An examined vertex is pinned at +inf in bound: its eccentricity is known
    and at least r_upper, so it no longer bounds the radius, and picking a
    candidate stays a single argmin (max(inf, x) == inf keeps it pinned as
    pivots are folded in). Every unexamined vertex has ecc(v) >= bound[v]
    and every examined one has ecc(v) >= r_upper, so the radius is at least
    the smaller of the least unexamined bound and r_upper: that is r_lower.
    Candidates are never re-examined, so the loop ends after at most n
    verifications; if it runs out of candidates every eccentricity is known
    and the best seen is exact.
    """
    n = provider.n
    pair, bound, pivots = far_pair(provider)
    r_lower, r_upper = 0.0, math.inf
    center = None
    trace: list[tuple[float, float]] = []

    while len(trace) < n:
        c = int(bound.argmin())
        r_lower = max(r_lower, min(float(bound[c]), r_upper))
        bound[c] = math.inf
        ecc, far_v = eccentricity(provider.row(c))
        if ecc < r_upper:
            r_upper, center = ecc, c
        trace.append((r_lower, r_upper))
        if r_lower >= r_upper:
            break
        if far_v not in pivots:  # a known pivot's row is folded in already
            np.maximum(bound, provider.row(far_v), out=bound)
            pivots.append(far_v)

    return RadiusResult(
        radius=r_upper,
        center=center,
        far_pair=pair,
        pivots=pivots,
        sssp_count=provider.sssp_count,
        rows_accessed=provider.rows_accessed,
        bound_trace=trace,
    )
