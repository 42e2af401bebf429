"""Single-source shortest paths and the distance-provider contract.

A distance row is a plain float64 array of length n with row[source] == 0;
its source is whatever the caller asked for. sssp computes one: graphs of
average degree SPARSE_DEGREE_CUT and up run sssp_vectorized, a heap search
relaxing each neighborhood with numpy; sparser graphs run numpy relaxation
rounds over the whole graph and hand the thin tail to a heap that relaxes
arc by arc in Python, reading the read-only CSR arrays directly. The
provider hides whether rows come from an on-demand sssp run (Problem 1) or
from a precomputed all-pairs matrix (Problem 2), and where the far-pair walk
starts on that backing (walk_start), and keeps usage statistics so searches
can report how little of the graph they touched.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from types import MappingProxyType

import numpy as np

from .graph import Graph


class DisconnectedGraphError(RuntimeError):
    """Raised when a shortest-path run leaves some vertex unreachable."""

    def __init__(self, source: int, vertex: int):
        self.source = source
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is unreachable from vertex {source}")


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class DistanceMatrix:
    """Dense n x n shortest-path distances with a zero diagonal.

    Floyd-Warshall matrices are symmetric bit for bit. Matrices of Dijkstra
    rows with float weights can differ by one ulp across the diagonal: row
    i sums a path from i, row j the same path from j.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


# Average degree (2m/n) from which sssp runs sssp_vectorized instead of the
# rounds and heap below. Per SSSP (seed 0, 20 sources, best of 5, 2-core x86
# machine), rounds and heap vs sssp_vectorized: complete:70 0.16 vs 0.77 ms,
# complete:120 0.40 vs 1.38, complete:200 1.08 vs 2.38, complete:300 2.25 vs
# 3.77, complete:400 3.22 vs 5.28, complete:600 8.62 vs 5.72, complete:1000
# 23.7 vs 14.1. So the crossover lies between degree 400 and 600, far above
# the cut; the cut stays until a benchmark workload runs SSSPs at degree 64
# or more (ROADMAP items 1 and 2).
SPARSE_DEGREE_CUT = 64.0

# Below the cut sssp first relaxes every arc at once per round (Delta-stepping,
# Meyer & Sanders 2003, with Delta = infinity): each vertex takes the least
# d[u] + w(u, v) over its arcs. Round 1 is the source's own arcs. The
# WARMUP_ROUNDS rounds do not count the labels they lower; after them, the
# first round that lowers fewer than n // THIN labels hands over to the
# lazy-deletion heap, seeded only with the vertices that round lowered: a
# vertex it left unchanged has already relaxed its arcs at its current label.
# Both phases stop at Dijkstra's fixed point d[v] = min over u of
# fl(d[u] + w(u, v)): float addition rounds monotonically, so no label falls
# below Dijkstra's value, and at the end no arc can lower one. So rows equal
# sssp_vectorized's bit for bit. Per SSSP on a 2-core x86 machine, seed 0,
# 20 sources, heap alone -> this kernel, best of 5 in each of 3 runs:
# sparse:100:300 0.135 -> 0.046 ms, complete:50 0.27 -> 0.044 ms (rows
# converge in rounds), sparse:1000:4000 2.0 -> 0.43 ms; long thin graphs hand
# over after the warm-up and pay for it, path:300 0.154 -> 0.170 ms and grid
# 70x70 6.0 -> 6.2 ms. Rounds to convergence or a fixed round cap lose on
# such graphs (ROADMAP, "Measured and dropped"). At these sizes a round is
# bound by numpy's cost per call, not by its arcs, so the kernel calls
# ndarray methods, np.empty and np.fromiter rather than their Python-level
# wrappers (np.count_nonzero, np.flatnonzero, np.full, np.array), which cost
# 2-4x as much per call on a 100-entry array.
#
# When g.sums_exact holds, the same loop runs on int64 labels and int64
# weights, which np.minimum.reduceat and the adds handle faster than float64,
# with INT_UNREACHED in place of inf; each exit converts the row to float64
# once. Every reached label is an integer below 2**53 and each comparison
# between reached labels is decided as the float loop decides it, so the row,
# the hand-over round and the heap seeds are the float loop's. No clamp
# keeps the unreached labels at INT_UNREACHED: after round r a vertex the
# rounds have not reached holds INT_UNREACHED + m_r(v), m_r(v) the lightest
# walk of r - 1 arcs through unreached vertices. Dropping such a walk's first
# arc leaves a walk that qualified a round earlier, so with non-negative
# weights m_r(v) never falls, and new < dist never counts an unreached vertex,
# as inf < inf never does. The rounds stop within n + 1 rounds, so these
# labels stay below INT_UNREACHED + (n + 1) * w_max < 2**63. The int64
# weights are converted per call, about 2% of an answer, and not kept on
# the graph, which would cost 8 bytes per arc for as long as it lives. On
# sparse:100:300 with integer weights 1-100 (seed i for graph i), medians of
# 11 alternating pairs in one process on a 2-core x86 machine, float64 ->
# int64 labels: 0.058 -> 0.050 ms per SSSP (20 sources of 64 graphs) and
# 562 -> 500 us per R1 + D1 answer (256 graphs), lower in 10 of 11 pairs
# each. Float graphs keep float64 labels and stayed level: complete:50 with
# float weights read 0.0939 -> 0.0935 ms per SSSP.
WARMUP_ROUNDS = 2
THIN = 32
INT_UNREACHED = 2**62


def sssp(g: Graph, source: int) -> np.ndarray:
    """Distances from source to every vertex, as a float64 array with
    row[source] == 0.

    The kernel follows g's average degree alone. From SPARSE_DEGREE_CUT on
    the row is sssp_vectorized's. Below it the row is found in numpy
    relaxation rounds over the whole CSR; when the rounds thin out, a binary
    heap (lazy deletion) finishes it arc by arc, reading the CSR arrays
    through memoryviews, so nothing is kept between calls. When
    g.sums_exact holds (integer weights, w_max * (n - 1) < 2**53) the rounds
    and the heap run on int64 labels, with int64 weights converted per call
    and INT_UNREACHED in place of inf, and each exit converts the row to
    float64 once; every distance is then an integer below 2**53, and an
    unreached label never counts as lowered (the comment above
    WARMUP_ROUNDS), so the rounds, the heap seeds and the row are the float
    loop's. All paths produce the same distances bit for bit. No sum
    d[u] + w overflows on a graph that passed the weight rules of from_arcs
    and generate, which keep 4 * n * w_max finite (graph._edge_weights), nor
    on int64 labels, which stay below INT_UNREACHED + (n + 1) * w_max < 2**63.
    """
    if g.average_degree >= SPARSE_DEGREE_CUT:
        return sssp_vectorized(g, source)
    n = g.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    if g.sums_exact:
        weights, unreached = g.weights.astype(np.int64), INT_UNREACHED
        dist = np.empty(n, np.int64)
    else:
        weights, unreached = g.weights, np.inf
        dist = np.empty(n)
    dist.fill(unreached)
    dist[source] = 0.0
    seeds = [source]
    # reduceat would give a vertex without arcs the next vertex's first arc
    # (or read past the end for the last vertex), so such graphs skip the
    # rounds; with n > 1 they are disconnected, and the heap names the vertex.
    if g.every_vertex_has_arc:
        starts, indices = g.indptr[:-1], g.indices
        # Round 1 is the source's own arcs: only dist[source] is reached, so
        # the round would give each neighbor v 0.0 + w(v, source) and leave
        # every other vertex unreached. The CSR is symmetric with one arc per
        # neighbor and no self-loop (dist[source] stays 0.0), and it holds no
        # -0.0, so 0.0 + w has w's bytes. The arcs come from weights, in the
        # labels' dtype: float64 assigned into int64 costs about 1 us more.
        lo, hi = g.indptr[source], g.indptr[source + 1]
        dist[indices[lo:hi]] = weights[lo:hi]
        rounds = 1
        while True:
            new = dist[indices]  # one 2m-long temporary per round
            new += weights
            new = np.minimum.reduceat(new, starts)
            new[source] = 0.0  # every other reached label is at most its last value
            rounds += 1
            if rounds <= WARMUP_ROUNDS:
                # nothing reads the count yet; a row that settles here is
                # confirmed by the next round, with the same labels
                dist = new
                continue
            lowered = (new < dist).nonzero()[0]
            dist = new
            if lowered.size == 0:
                return _checked(dist, source, unreached).astype(np.float64, copy=False)
            if lowered.size < n // THIN:
                seeds = lowered.tolist()
                break
    # memoryview items are plain Python ints and floats, as list items would
    # be, but nothing is copied. Indexing one costs more than indexing a
    # list: long paths pay about 15% per SSSP (CHANGES.md has the table).
    indptr, indices, weights = map(memoryview, (g.indptr, g.indices, weights))
    d = dist.tolist()
    heap = [(d[u], u) for u in seeds]
    heapify(heap)
    while heap:
        du, u = heappop(heap)
        if du > d[u]:
            continue  # a stale entry: u was lowered after it was pushed
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            dv = du + weights[i]
            if dv < d[v]:
                d[v] = dv
                heappush(heap, (dv, v))
    return _checked(np.fromiter(d, np.float64, n), source, unreached)


def _checked(dist: np.ndarray, source: int, unreached=np.inf) -> np.ndarray:
    """dist, or DisconnectedGraphError naming its smallest unreachable id.

    A label is unreachable from unreached up: inf, or on int64 labels
    INT_UNREACHED plus a walk through unreached vertices, so two such labels
    can differ and argmax alone need not find the smallest id.
    """
    far = int(dist.argmax())
    if dist[far] < unreached:
        return dist
    raise DisconnectedGraphError(source, int((dist >= unreached).argmax()))


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
    return _checked(dist, source)  # a vertex is settled iff its label is finite


def eccentricity(row: np.ndarray) -> tuple[float, int]:
    """Max entry of the row and the smallest vertex id achieving it."""
    argmax = int(row.argmax())  # argmax returns the first (smallest) id
    return float(row[argmax]), argmax


class DistanceProvider:
    """Unified row access for Problems 1 and 2 with access accounting.

    row(source) returns the distance array from source. On demand, from
    graph, it computes rows by sssp and caches them for its lifetime (no
    eviction); matrix-backed, from matrix, it hands out views values[source],
    cached the same way. Exactly one of graph and matrix is set.
    rows_accessed counts every row read that returns a row, sssp_count only
    rows actually computed. held_rows shows the cached rows without reading any.

    walk_start is the vertex the far-pair walk starts at. On demand it is
    graph.walk_start, a vertex near the periphery, so the walk takes fewer
    steps and its first row is a strong pivot. Over a matrix it is vertex 0:
    finding that vertex there takes an n x n scan, and the walk's rows cost
    no SSSP. So the two backings can read different rows and, where the
    radius has several centers, report different ones.
    """

    def __init__(self, graph: Graph | None = None, matrix: DistanceMatrix | None = None):
        if (graph is None) == (matrix is None):
            raise ValueError("provide exactly one of graph or matrix")
        self.graph = graph
        self.matrix = matrix
        self.n = graph.n if graph is not None else matrix.n
        self.walk_start = graph.walk_start if graph is not None else 0
        self._cache: dict[int, np.ndarray] = {}
        self.sssp_count = 0
        self.rows_accessed = 0

    @classmethod
    def on_demand(cls, graph: Graph) -> "DistanceProvider":
        return cls(graph=graph)

    @classmethod
    def from_matrix(cls, matrix: DistanceMatrix) -> "DistanceProvider":
        return cls(matrix=matrix)

    def held_rows(self) -> MappingProxyType:
        """A live read-only view {source: row} of the rows the provider holds.

        Looking at it is not a row read: rows_accessed does not change.
        """
        return MappingProxyType(self._cache)

    def row(self, source: int) -> np.ndarray:
        row = self._cache.get(source)
        if row is None:
            if self.matrix is not None:
                if not 0 <= source < self.n:  # sssp checks its own sources
                    raise ValueError(f"source {source} out of range")
                row = self.matrix.values[source]
            else:
                row = sssp(self.graph, source)
                self.sssp_count += 1
            self._cache[source] = row
        self.rows_accessed += 1  # a read that raises returns no row
        return row
