"""Weighted undirected graph container, DIMACS .gr I/O and seeded generators.

A Graph is its three CSR arrays (indptr/indices/weights), with 0-based
vertex ids: DIMACS vertex u + 1 is vertex u here, and the CLI reports vertex
u as u + 1. Its n and m follow from the arrays, and building a Graph makes
the arrays read-only. from_arcs builds every graph given as an arc list
(DIMACS files, the sparse generator); the complete generator writes its
graph straight into CSR form, with no arc list and no sort, and gives the
same bytes. Both apply one set of weight rules. Whether a graph is
connected is found by the first shortest-path run of a search, which on a
disconnected graph raises naming the smallest vertex that vertex 0 cannot
reach; check_connected answers the same question without a search, by label
hooking: a few numpy rounds over the whole CSR in which every vertex takes
the smallest label near it, until every label is 0 or a round changes
nothing.

load_dimacs has two readers. A plain file (comments, header, then arc lines
of plain ASCII numbers) is parsed in bulk by numpy's C text reader; any file
it declines is read line by line, and that reader alone decides what is
malformed and words the fault, so both give the same graph or error.
"""
from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DimacsParseError(ValueError):
    """Malformed DIMACS input; message carries the offending line number."""


class GraphValidationError(ValueError):
    """Structurally invalid graph data (bad ids, negative weights, ...)."""


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class Graph:
    """Immutable weighted undirected graph: its three CSR arrays.

    Vertex u's neighbours are indices[indptr[u]:indptr[u + 1]], and weights
    holds their edge weights at the same positions. n and m follow from the
    arrays. Building a Graph checks that their shapes agree and makes them
    read-only: every search on the graph shares them.

    Adjacency is symmetric by construction: every undirected edge is stored
    as two directed arcs with identical weight. Parallel edges are collapsed
    to the minimum weight and self-loops are dropped (neither can shorten a
    shortest path).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # O(1) checks only: from_arcs and _complete give sorted, in-range CSR.
        try:
            agree = (self.indptr.ndim == self.indices.ndim == self.weights.ndim == 1
                     and self.indptr.size >= 2 and self.indptr[0] == 0
                     and self.indptr[-1] == self.indices.size == self.weights.size)
        except AttributeError:  # not numpy arrays
            agree = False
        if not agree:
            raise GraphValidationError(
                "CSR arrays disagree: need 1-D arrays and an indptr of n + 1 >= 2"
                " entries from 0 to indices.size == weights.size")
        for a in (self.indptr, self.indices, self.weights):
            a.flags.writeable = False

    @cached_property
    def n(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def m(self) -> int:
        """Undirected edge count."""
        return self.indices.size // 2

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and edge weights of vertex u, as array views."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    @cached_property
    def every_vertex_has_arc(self) -> bool:
        """True iff no vertex has degree 0; found once per graph."""
        return bool((self.indptr[1:] > self.indptr[:-1]).all())

    @cached_property
    def walk_start(self) -> int:
        """The vertex whose lightest arc is the heaviest (smallest id on
        ties); found once per graph.

        Every other vertex is at least that lightest arc away from it, so it
        lies near the periphery, where the far-pair walk starts. It is 0 when
        some vertex has no arc (one vertex, or a disconnected graph), and
        when every weight is 0.
        """
        if not self.every_vertex_has_arc:  # also keeps reduceat's segments non-empty
            return 0
        return int(np.minimum.reduceat(self.weights, self.indptr[:-1]).argmax())


def from_arcs(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Graph:
    """Build a Graph from directed arc arrays.

    Both directions of every arc are materialized, self-loops removed and
    duplicate arcs collapsed to the minimum weight, so the result is always
    symmetric regardless of whether the input listed one or both directions.
    A zero weight is stored as +0.0, also where the input gave -0.0.
    """
    if n < 1:
        raise GraphValidationError("graph needs at least one vertex")
    if n * n >= 2**63:  # the arc key below; checked before anything is allocated
        raise GraphValidationError(
            f"graph refused: n={n} is too large (n * n must be below 2**63)"
        )
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.size and (u.min() < 0 or u.max() >= n or v.min() < 0 or v.max() >= n):
        raise GraphValidationError("vertex id out of range [0, n)")
    w = _edge_weights(n, w)

    keep = u != v  # self-loops never shorten a path
    u, v, w = u[keep], v[keep], w[keep]

    # One int64 key per arc, both directions, orders the arcs by (u, v), the
    # CSR order, with a single sort instead of a sort per field. It needs
    # n * n < 2**63, i.e. n < 3.04e9, checked above; an indptr that long
    # would take 24 GB.
    key = np.concatenate([u * n + v, v * n + u])
    order = np.argsort(key, kind="stable")
    key, weights = key[order], np.concatenate([w, w])[order]
    new_run = key[1:] != key[:-1]
    if not new_run.all():
        # Parallel arcs collapse to their minimum weight: the minimum of each
        # run of equal keys is the weight that sorting by (u, v, w) puts
        # first, and with no -0.0 left it is the same bytes too.
        starts = np.flatnonzero(np.concatenate(([True], new_run)))
        weights = np.minimum.reduceat(weights, starts)
        key = key[starts]
    rows, indices = np.divmod(key, n)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(indptr, indices, weights)


def _complete(n: int, w: np.ndarray) -> Graph:
    """The complete graph whose edge (u, v), u < v, weighs w[k] for the k-th
    pair of np.triu_indices(n, 1): the Graph from_arcs builds from those arcs.

    Row u of its CSR form holds every v != u in ascending order, which is row
    u of the symmetric weight matrix without its diagonal entry. Dropping the
    first entry of the flat n x n matrix leaves n - 1 rows of n + 1 entries,
    each ending on a diagonal entry; without that last column they hold the
    off-diagonal entries in row order, so no arc list is built or sorted.
    """
    w = _edge_weights(n, w)
    upper = ~np.tri(n, dtype=bool)  # row-major order of the mask is triu order
    W = np.zeros((n, n))
    W[upper] = w
    W.T[upper] = w  # the mirror entries, so W is symmetric with a +0.0 diagonal
    cols = np.empty((n, n), dtype=np.int64)
    cols[:] = np.arange(n)

    def off_diagonal(a: np.ndarray) -> np.ndarray:
        return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(-1)

    indptr = np.arange(n + 1) * (n - 1)
    return Graph(indptr, off_diagonal(cols), off_diagonal(W))


def _edge_weights(n: int, w) -> np.ndarray:
    """Edge weights as float64 with -0.0 stored as +0.0, once they pass the
    rules of every graph: finite, non-negative, and 4 * n * w_max finite.

    The last rule means no sum a search forms can overflow, with a factor of
    2 to spare: a label plus an arc in sssp is at most n * w_max (a label is
    a path of at most n - 1 arcs), and a sum of two distances (row + ecc in
    the on-demand diameter search, D[i, k] + D[k, j] in Floyd-Warshall) at
    most 2 * (n - 1) * w_max. It is checked on the input weights, before
    self-loops and parallel arcs are dropped.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size:
        if not np.isfinite(w).all():
            raise GraphValidationError("non-finite edge weight")
        if w.min() < 0:
            raise GraphValidationError("negative edge weight")
        w_max = float(w.max())
        if not math.isfinite(4 * n * w_max):
            raise GraphValidationError(
                f"edge weight {w_max} too large: the searches need"
                f" 4 * n * w_max finite (n={n})"
            )
    return w + 0.0  # + 0.0 turns -0.0 into +0.0


def load_dimacs(path) -> Graph:
    """Parse a DIMACS shortest-path `.gr` file.

    Expects one `p sp n m` header, `a u v w` arc lines with 1-based vertex
    ids and non-negative (integer or decimal) weights, and `c` comments.
    The file must hold exactly m arc lines. The reverse direction of each
    arc is added if absent. The text is UTF-8: a byte that is not is ignored
    in a comment and a DimacsParseError naming its line anywhere else.
    Header and arc lines must be ASCII without "_" or "+": Python's int()
    and float() read "1_0", a sign "+1" and non-ASCII digits, which DIMACS
    numbers lack.

    A plain file is read in bulk by numpy's C text reader; every other file
    is read line by line. Both give the same graph, and only the line reader
    decides what is malformed and how the fault is worded.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    g = _load_plain(text)
    return g if g is not None else _load_lines(io.StringIO(text))


# A comment line among the arcs, with the newline before it: the line reader
# skips every line that starts with "c".
_COMMENT_LINE = re.compile(r"\nc[^\n]*")
# Every character a plain data line may hold: printable ASCII but "_" and
# "+", tab and newline. The line reader rejects "_" and "+", which numpy's
# number parsers do not (a sign "+1"); a file with any other control
# character is left to the line reader rather than to loadtxt's tokenizer.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).translate(None, b"_+") + b"\t\n"
# A two-character tag: a longer field is cut to two characters, never to "a".
_ARC_ROW = np.dtype([("tag", "U2"), ("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _load_plain(text: str) -> Graph | None:
    """The graph of a plain DIMACS text, parsed by one np.loadtxt call, or
    None when the text is not plain and _load_lines must read it.

    Plain means: `c` lines, then a `p sp n m` line of ASCII digits, then m
    `a u v w` lines of plain characters whose n, ids and weights from_arcs
    accepts; blank lines and `c` lines may sit among the arcs. The line
    reader accepts every plain text and parses it to the same numbers; it
    also reads every text declined here, which may be valid, so this reader
    never decides that a file is malformed.
    """
    start = 0
    while text.startswith("c", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    end = text.find("\n", start)
    header = text[start:end]
    fields = header.split()
    if (
        end < 0 or not header.isascii() or len(fields) != 4 or fields[:2] != ["p", "sp"]
        or not (fields[2].isdigit() and fields[3].isdigit())
    ):
        return None
    n, m = int(fields[2]), int(fields[3])
    body = text[end:]  # from the header's newline on
    if "\nc" in body:
        body = _COMMENT_LINE.sub("", body)
    # With no arc line loadtxt warns that the input holds no data.
    if "a" not in body or not body.isascii():
        return None
    if body.encode("ascii").translate(None, _PLAIN_BYTES):
        return None
    try:
        # No line break but "\n" is left, so splitlines splits as a file does.
        rows = np.loadtxt(body.splitlines(), dtype=_ARC_ROW, comments=None, ndmin=1)
    except ValueError:  # a field count other than 4, a field no number, an id beyond int64
        return None
    if rows.size != m or (rows["tag"] != "a").any():
        return None
    try:
        return from_arcs(n, rows["u"] - 1, rows["v"] - 1, rows["w"])
    except GraphValidationError:  # n, an id or a weight: the line reader words the fault
        return None


def _load_lines(lines) -> Graph:
    """Parse DIMACS text line by line: the reader of every file that
    _load_plain declines, and the one that names each fault."""
    n = m = None
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    try:
        for lineno, raw in enumerate(lines, start=1):
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
                    if "_" in line or "+" in line or not line.isascii():
                        raise ValueError  # int() reads "1_0", "+1" and non-ASCII digits
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise DimacsParseError(
                        f"line {lineno}: non-integer header fields {line!r}"
                    ) from None
                if n < 1:
                    raise GraphValidationError(f"line {lineno}: vertex count must be >= 1")
                if m < 0:
                    raise DimacsParseError(f"line {lineno}: arc count must be >= 0, got {m}")
            elif parts[0] == "a":
                if n is None:
                    raise DimacsParseError(f"line {lineno}: arc before 'p sp' header")
                if len(parts) != 4:
                    raise DimacsParseError(f"line {lineno}: malformed arc {line!r}")
                try:
                    if "_" in line or "+" in line or not line.isascii():
                        # int() and float() read "1_0", "+1", "1e+3" and non-ASCII digits
                        raise ValueError
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
                if not 0.0 <= weight < math.inf:  # also catches nan
                    kind = "negative" if weight < 0 else "non-finite"
                    raise GraphValidationError(f"line {lineno}: {kind} weight {weight}")
                us.append(a - 1)
                vs.append(b - 1)
                ws.append(weight)
            else:
                raise DimacsParseError(
                    f"line {lineno}: unknown line type {parts[0]!r}"
                )
    except DimacsParseError:
        # surrogateescape reads a byte that is not UTF-8 as a lone
        # surrogate, which no field accepts: only data lines holding one
        # end up here, and the byte is the fault to report.
        bad = [c for c in line if "\udc80" <= c <= "\udcff"]
        if bad:
            raise DimacsParseError(
                f"line {lineno}: byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8 text"
            ) from None
        raise
    if n is None:
        raise DimacsParseError("missing 'p sp n m' header")
    if len(us) != m:
        raise DimacsParseError(f"header declares {m} arcs but the file has {len(us)} arc lines")
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
                # repr writes an exponent only below 1e-4 ("1e-05"), since
                # every float from 1e16 up is an integer: no "+" is written
                text = str(int(w)) if w == int(w) else repr(w)
                fh.write(f"a {u + 1} {v + 1} {text}\n")


@dataclass(frozen=True)
class GraphSpec:
    """Seeded generator parameters; generation is a pure function of this.

    Weights are drawn uniformly from [lo, hi) as floats, or with
    integer_weights from the integers of the closed range [int(lo), int(hi)].
    """

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
        # A sparse build ends in from_arcs, which needs n * n < 2**63; a
        # complete one holds n x n float64 arrays, whose bytes must fit too.
        if self.n * self.n * (8 if self.kind == "complete" else 1) >= 2**63:
            raise GraphValidationError(
                f"graph refused: n={self.n} is too large for a {self.kind} graph"
            )
        if self.seed < 0:
            raise GraphValidationError(f"seed must be non-negative, got {self.seed}")
        if self.integer_weights not in (0, 1):
            raise GraphValidationError(
                f"integer_weights (int) must be 0 or 1, got {self.integer_weights!r}"
            )
        lo, hi = self.weight_range
        if lo < 0 or lo > hi:
            raise GraphValidationError("weight range needs 0 <= lo <= hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):  # nan passes the check above
            raise GraphValidationError(f"weight range [{lo}, {hi}] needs finite bounds")
        if self.integer_weights and int(hi) + 1 > np.iinfo(np.int64).max:
            raise GraphValidationError(
                f"integer weight range [{lo}, {hi}] needs int(hi) + 1 within int64"
            )
        if self.kind == "sparse":
            target = self.target_edges if self.target_edges is not None else 2 * self.n
            if target < self.n - 1:
                raise GraphValidationError("sparse graph needs target edges >= n - 1")


def _draw_weights(rng: np.random.Generator, count: int, spec: GraphSpec) -> np.ndarray:
    """Uniform floats in [lo, hi), or uniform integers in [int(lo), int(hi)]."""
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
        return _complete(n, _draw_weights(rng, n * (n - 1) // 2, spec))

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


def check_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0.

    Found by label hooking over the whole CSR, a few numpy rounds in place
    of a per-vertex traversal: the scheme of Shiloach & Vishkin (An O(log n)
    parallel connectivity algorithm, J. Algorithms 1982) in the FastSV form
    of Zhang, Azad & Hu (SIAM PP 2020). Every vertex v holds a label f[v],
    at first v itself; _hook_round gives the next labels.

    Invariant: f[v] is a vertex of v's component, f[v] <= v, and no label
    ever rises. So the graph is connected as soon as every label is 0.
    Stop argument: labels are integers that never rise, so some round
    changes nothing. In that round f[v] <= f[f[v]] (the shortcut) and
    f[f[v]] <= f[v] (the invariant at f[v]), so every arc (v, u) has
    f[v] <= f[f[u]] = f[u] (the hook). Labels are then constant on every
    arc and each component carries its smallest id: a round that changes
    nothing while some label is not 0 proves a second component.

    The searches need no separate check: their first sssp (or
    floyd_warshall) raises DisconnectedGraphError, naming the smallest
    vertex unreachable from vertex 0. Where the far-pair walk starts
    elsewhere and its first row raises, it reads vertex 0's row, which
    raises that error.
    """
    if g.n == 1:
        return True
    if not g.every_vertex_has_arc:  # also keeps reduceat's segments non-empty
        return False
    f = np.arange(g.n)
    while True:
        new = _hook_round(g, f)
        if not new.any():
            return True
        if np.array_equal(new, f):
            return False
        f = new


def _hook_round(g: Graph, f: np.ndarray) -> np.ndarray:
    """One hooking round: each vertex v takes the smallest label among its
    neighbours' parents (mn[v]), hooks its parent f[v] to that label too,
    then shortcuts to its grandparent f[f[v]]. The parent hook is what keeps
    the rounds few: with only the vertex's own hook and one shortcut per
    round, a permuted path of 30 000 vertices took 10 498 rounds, against
    16 with it.
    """
    gf = f[f]
    mn = np.minimum.reduceat(gf[g.indices], g.indptr[:-1])
    new = f.copy()
    np.minimum.at(new, f, mn)
    np.minimum(new, mn, out=new)
    np.minimum(new, gf, out=new)
    return new
