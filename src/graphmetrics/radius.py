"""Pivot-driven center and radius search.

A small set of pivot vertices bounds every vertex's eccentricity from below
(max distance to any pivot). The search repeatedly verifies the most
promising candidate center until the lower and upper radius bounds meet,
touching only a small fraction of the graph's distance rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sssp import DistanceProvider, DistanceRow, eccentricity

FAR_PAIR_CAP = 64  # ties can make the far-pair walk cycle; any pair is sound


@dataclass
class PivotState:
    """Mutable search state: pivots, per-vertex pivot maxima and bounds.

    pivot_max[v] is the largest distance from v to any pivot, a lower bound
    on ecc(v). An examined vertex is pinned at +inf: its eccentricity is
    known and at least r_upper, so it no longer bounds the radius and
    candidate selection is a single argmin.
    """

    n: int
    pivot_max: np.ndarray | None = None  # None until the first pivot
    examined_count: int = 0
    pivots: list[int] = field(default_factory=list)
    r_lower: float = 0.0
    r_upper: float = math.inf
    best_center: int | None = None

    @classmethod
    def new(cls, n: int) -> "PivotState":
        return cls(n=n)

    def update_pivot_max(self, row: DistanceRow) -> None:
        """Fold a new pivot's distance row into the per-vertex maxima."""
        if row.source in self.pivots:
            return  # duplicate pivot adds no information
        if self.pivot_max is None:
            self.pivot_max = row.dist.copy()
        else:
            # max(inf, x) == inf keeps examined entries pinned
            np.maximum(self.pivot_max, row.dist, out=self.pivot_max)
        self.pivots.append(row.source)

    def mark_examined(self, v: int) -> None:
        if self.pivot_max[v] != math.inf:
            self.pivot_max[v] = math.inf
            self.examined_count += 1

    def select_candidate(self) -> tuple[int, float] | None:
        """Unexamined vertex with the smallest pivot-max bound.

        Every unexamined vertex has ecc(v) >= pivot_max[v] and every examined
        one has ecc(v) >= r_upper, so the radius is at least the smaller of
        the smallest unexamined entry and r_upper. Returns None when every
        vertex has been examined.
        """
        if self.examined_count == self.n:
            return None
        c = int(self.pivot_max.argmin())
        self.r_lower = max(self.r_lower, min(float(self.pivot_max[c]), self.r_upper))
        return c, self.r_lower


def far_pair(provider: DistanceProvider) -> tuple[int, int]:
    """Find two mutually remote vertices by the farthest-vertex walk.

    Start at vertex 0 and repeatedly jump to the farthest vertex (smallest
    id on ties) until the walk revisits the vertex two steps back, or the
    step cap is hit. Every returned vertex has its row already cached.
    """
    n = provider.n
    if n == 1:
        return 0, 0
    prev: int | None = None
    cur = 0
    cap = min(n, FAR_PAIR_CAP)
    for _ in range(cap):
        _, nxt = eccentricity(provider.row(cur))
        if nxt == prev:
            return cur, nxt
        prev, cur = cur, nxt
    return prev, cur


@dataclass(frozen=True)
class RadiusResult:
    radius: float
    center: int
    pivots: list[int]
    candidates_examined: int
    sssp_count: int
    rows_accessed: int
    bound_trace: list[tuple[float, float]]


def find_radius(provider: DistanceProvider) -> RadiusResult:
    """Exact radius and one center via pivot bounds and candidate checks.

    Loop: pick the unexamined vertex with the smallest pivot-max bound,
    verify its true eccentricity (tightening the upper bound), and if the
    bounds have not met, add its farthest vertex as a new pivot. Candidates
    are never re-examined, so the loop ends after at most n verifications;
    if it runs out of candidates every eccentricity is known and the best
    seen is exact.
    """
    n = provider.n
    p1, p2 = far_pair(provider)
    state = PivotState.new(n)
    state.update_pivot_max(provider.row(p1))
    state.update_pivot_max(provider.row(p2))
    trace: list[tuple[float, float]] = []

    while True:
        picked = state.select_candidate()
        if picked is None:
            break
        c, _ = picked
        state.mark_examined(c)
        row = provider.row(c)
        ecc, far_v = eccentricity(row)
        if ecc < state.r_upper:
            state.r_upper = ecc
            state.best_center = c
        trace.append((state.r_lower, state.r_upper))
        if state.r_lower >= state.r_upper:
            break
        state.update_pivot_max(provider.row(far_v))

    return RadiusResult(
        radius=state.r_upper,
        center=state.best_center,
        pivots=list(state.pivots),
        candidates_examined=state.examined_count,
        sssp_count=provider.sssp_count,
        rows_accessed=provider.rows_accessed,
        bound_trace=trace,
    )
