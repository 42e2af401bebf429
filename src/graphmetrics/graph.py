"""Weighted undirected graph container, DIMACS .gr I/O and seeded generators.

Graphs are stored in CSR form (indptr/indices/weights) with internal 0-based
vertex ids. The original (1-based DIMACS) ids are kept alongside so reports
can echo input ids.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DimacsParseError(ValueError):
    """Malformed DIMACS input; message carries the offending line number."""


class GraphValidationError(ValueError):
    """Structurally invalid graph data (bad ids, negative weights, ...)."""


@dataclass(frozen=True)
class Graph:
    """Immutable weighted undirected graph.

    Adjacency is symmetric by construction: every undirected edge is stored
    as two directed arcs with identical weight. Parallel edges are collapsed
    to the minimum weight and self-loops are dropped (neither can shorten a
    shortest path).
    """

    n: int
    m: int  # undirected edge count
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    original_ids: np.ndarray  # internal id -> reported id (1-based for DIMACS)

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and edge weights of vertex u, as array views."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def edges(self):
        """Yield each undirected edge once as (u, v, w) with u < v."""
        for u in range(self.n):
            nbrs, ws = self.neighbors(u)
            for v, w in zip(nbrs.tolist(), ws.tolist()):
                if u < v:
                    yield u, v, w

    def report_id(self, u: int) -> int:
        return int(self.original_ids[u])


def from_arcs(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    original_ids: np.ndarray | None = None,
) -> Graph:
    """Build a Graph from directed arc arrays.

    Both directions of every arc are materialized, self-loops removed and
    duplicate arcs collapsed to the minimum weight, so the result is always
    symmetric regardless of whether the input listed one or both directions.
    """
    if n < 1:
        raise GraphValidationError("graph needs at least one vertex")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if u.size:
        if u.min() < 0 or u.max() >= n or v.min() < 0 or v.max() >= n:
            raise GraphValidationError("vertex id out of range [0, n)")
        if w.min() < 0:
            raise GraphValidationError("negative edge weight")

    uu = np.concatenate([u, v])
    vv = np.concatenate([v, u])
    ww = np.concatenate([w, w])
    keep = uu != vv  # self-loops never shorten a path
    uu, vv, ww = uu[keep], vv[keep], ww[keep]

    if uu.size:
        # Sort by (u, v, w); the first occurrence of each (u, v) carries the
        # minimum weight, which implements the parallel-edge collapse.
        order = np.lexsort((ww, vv, uu))
        uu, vv, ww = uu[order], vv[order], ww[order]
        first = np.ones(uu.size, dtype=bool)
        first[1:] = (uu[1:] != uu[:-1]) | (vv[1:] != vv[:-1])
        uu, vv, ww = uu[first], vv[first], ww[first]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, uu + 1, 1)
    np.cumsum(indptr, out=indptr)
    if original_ids is None:
        original_ids = np.arange(1, n + 1, dtype=np.int64)
    return Graph(
        n=n,
        m=uu.size // 2,
        indptr=indptr,
        indices=vv.copy(),
        weights=ww.copy(),
        original_ids=np.asarray(original_ids, dtype=np.int64),
    )


def load_dimacs(path) -> Graph:
    """Parse a DIMACS shortest-path `.gr` file.

    Expects one `p sp n m` header, `a u v w` arc lines with 1-based vertex
    ids and non-negative (integer or decimal) weights, and `c` comments.
    The reverse direction of each arc is added if absent.
    """
    n = None
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise DimacsParseError(f"line {lineno}: duplicate problem line")
                if len(parts) != 4 or parts[1] != "sp":
                    raise DimacsParseError(f"line {lineno}: malformed header {line!r}")
                try:
                    n = int(parts[2])
                    int(parts[3])
                except ValueError:
                    raise DimacsParseError(
                        f"line {lineno}: non-integer header fields {line!r}"
                    ) from None
                if n < 1:
                    raise GraphValidationError(f"line {lineno}: vertex count must be >= 1")
            elif parts[0] == "a":
                if n is None:
                    raise DimacsParseError(f"line {lineno}: arc before 'p sp' header")
                if len(parts) != 4:
                    raise DimacsParseError(f"line {lineno}: malformed arc {line!r}")
                try:
                    a, b = int(parts[1]), int(parts[2])
                    weight = float(parts[3])
                except ValueError:
                    raise DimacsParseError(
                        f"line {lineno}: non-numeric arc fields {line!r}"
                    ) from None
                if not (1 <= a <= n and 1 <= b <= n):
                    raise GraphValidationError(
                        f"line {lineno}: vertex id out of range [1, {n}]"
                    )
                if weight < 0:
                    raise GraphValidationError(f"line {lineno}: negative weight {weight}")
                us.append(a - 1)
                vs.append(b - 1)
                ws.append(weight)
            else:
                raise DimacsParseError(
                    f"line {lineno}: unknown line type {parts[0]!r}"
                )
    if n is None:
        raise DimacsParseError("missing 'p sp n m' header")
    return from_arcs(
        n,
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
    )


def write_dimacs(g: Graph, path) -> None:
    """Write a graph in DIMACS `.gr` format (both arc directions listed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p sp {g.n} {2 * g.m}\n")
        for u in range(g.n):
            nbrs, ws = g.neighbors(u)
            for v, w in zip(nbrs.tolist(), ws.tolist()):
                text = str(int(w)) if w == int(w) else repr(w)
                fh.write(f"a {u + 1} {v + 1} {text}\n")


@dataclass(frozen=True)
class GraphSpec:
    """Seeded generator parameters; generation is a pure function of this."""

    kind: str  # "complete" | "sparse"
    n: int
    seed: int = 0
    weight_range: tuple[float, float] = (0.0, 100.0)
    target_edges: int | None = None  # sparse only
    integer_weights: bool = False

    def __post_init__(self):
        if self.kind not in ("complete", "sparse"):
            raise GraphValidationError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise GraphValidationError("n must be positive")
        lo, hi = self.weight_range
        if lo < 0 or lo > hi:
            raise GraphValidationError("weight range needs 0 <= lo <= hi")
        if self.kind == "sparse":
            target = self.target_edges if self.target_edges is not None else 2 * self.n
            if target < self.n - 1:
                raise GraphValidationError("sparse graph needs target edges >= n - 1")


def _draw_weights(rng: np.random.Generator, count: int, spec: GraphSpec) -> np.ndarray:
    lo, hi = spec.weight_range
    if spec.integer_weights:
        return rng.integers(int(lo), int(hi) + 1, size=count).astype(np.float64)
    return rng.uniform(lo, hi, size=count)


def generate(spec: GraphSpec) -> Graph:
    """Generate a seeded random graph.

    complete: all n(n-1)/2 edges with random weights.
    sparse:   random spanning tree plus random extra edges up to the target
              edge count, guaranteed connected.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "complete":
        u, v = np.triu_indices(n, k=1)
        w = _draw_weights(rng, u.size, spec)
        return from_arcs(n, u.astype(np.int64), v.astype(np.int64), w)

    target = spec.target_edges if spec.target_edges is not None else 2 * n
    perm = rng.permutation(n)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, n):
        a = int(perm[i])
        b = int(perm[int(rng.integers(0, i))])
        pairs.add((min(a, b), max(a, b)))
    max_pairs = n * (n - 1) // 2
    attempts = 0
    while len(pairs) < min(target, max_pairs) and attempts < 20 * target:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        attempts += 1
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edge_list = sorted(pairs)
    u = np.fromiter((e[0] for e in edge_list), dtype=np.int64, count=len(edge_list))
    v = np.fromiter((e[1] for e in edge_list), dtype=np.int64, count=len(edge_list))
    w = _draw_weights(rng, len(edge_list), spec)
    return from_arcs(n, u, v, w)


def unreachable_from(g: Graph, source: int = 0) -> int | None:
    """Smallest vertex id not reachable from source, or None if connected."""
    seen = np.zeros(g.n, dtype=bool)
    seen[source] = True
    stack = [source]
    while stack:
        u = stack.pop()
        nbrs = g.indices[g.indptr[u]:g.indptr[u + 1]]
        for v in nbrs[~seen[nbrs]].tolist():
            seen[v] = True
            stack.append(v)
    if seen.all():
        return None
    return int(np.flatnonzero(~seen)[0])


def check_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex."""
    return unreachable_from(g) is None
