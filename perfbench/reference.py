"""Ground truth for the benchmark, kept apart from the code it checks.

The graphs are rebuilt here from their spec strings by a re-implementation of
the documented generators, and the answers come from scipy's shortest-path
routines plus a full scan. Nothing in this module imports the package under
test, and it runs in the runner process, never in the timed worker.

Two distance conventions are used, each matching the searches it checks:
Problem 1 reads rows produced by Dijkstra from their source, so its reference
is scipy's Dijkstra; Problem 2 reads a Floyd-Warshall matrix, so its
reference is scipy's Floyd-Warshall.

With float weights the same shortest path summed from either end can differ
in the last ulp, so M[a, b] and M[b, a] may differ. An answer is "exact" when
it equals the reference read in row convention (M[a, b] is row a). It is
"direction" when it is exact only once each pair may take either of its two
summed values. With integer weights the two are the same.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

REQUIRED_OPTIONS = ("seed", "wlo", "whi", "int")


@dataclass(frozen=True)
class Spec:
    kind: str
    n: int
    edges: int | None
    seed: int
    lo: float
    hi: float
    integer: bool


def parse_spec(text: str) -> Spec:
    """Parse `kind:n[:m]:seed=s:wlo=a:whi=b:int=0|1`; every option is required."""
    parts = text.split(":")
    kind, n, rest = parts[0], int(parts[1]), parts[2:]
    edges = None
    if rest and "=" not in rest[0]:
        edges = int(rest.pop(0))
    options = dict(item.split("=", 1) for item in rest)
    missing = [k for k in REQUIRED_OPTIONS if k not in options]
    if missing or set(options) - set(REQUIRED_OPTIONS):
        raise ValueError(f"spec {text!r} must name exactly {REQUIRED_OPTIONS}")
    return Spec(
        kind=kind,
        n=n,
        edges=edges,
        seed=int(options["seed"]),
        lo=float(options["wlo"]),
        hi=float(options["whi"]),
        integer=bool(int(options["int"])),
    )


def _weights(rng: np.random.Generator, count: int, spec: Spec) -> np.ndarray:
    if spec.integer:  # inclusive upper end
        return rng.integers(int(spec.lo), int(spec.hi) + 1, size=count).astype(np.float64)
    return rng.uniform(spec.lo, spec.hi, size=count)


def build_csr(spec: Spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, weights) of the spec's graph, neighbours ascending."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "complete":
        u, v = np.triu_indices(n, k=1)
        dense = np.zeros((n, n))
        dense[u, v] = _weights(rng, u.size, spec)
        dense += dense.T
        off_diagonal = ~np.eye(n, dtype=bool)
        indptr = np.arange(n + 1, dtype=np.int64) * (n - 1)
        indices = np.nonzero(off_diagonal)[1].astype(np.int64)
        return indptr, indices, dense[off_diagonal]
    if spec.kind != "sparse":
        raise ValueError(f"unknown graph kind {spec.kind!r}")
    # A random spanning tree over a permutation, then random extra edges.
    target = spec.edges
    perm = rng.permutation(n)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[int(rng.integers(0, i))])
        pairs.add((min(a, b), max(a, b)))
    attempts = 0
    while len(pairs) < min(target, n * (n - 1) // 2) and attempts < 20 * target:
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        attempts += 1
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edge_u, edge_v = np.array(sorted(pairs), dtype=np.int64).T
    w = _weights(rng, edge_u.size, spec)
    src = np.concatenate([edge_u, edge_v])
    dst = np.concatenate([edge_v, edge_u])
    order = np.lexsort((dst, src))
    indptr = np.searchsorted(src[order], np.arange(n + 1)).astype(np.int64)
    return indptr, dst[order], np.concatenate([w, w])[order]


def fingerprint(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> str:
    """Hash of the CSR arrays as int64 / int64 / float64 bytes."""
    h = hashlib.sha256()
    for arr, dtype in ((indptr, np.int64), (indices, np.int64), (weights, np.float64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


def write_dimacs(path: str, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
    """DIMACS `.gr` with both directions of every edge, as road files list them."""
    n = indptr.size - 1
    src = np.repeat(np.arange(1, n + 1), np.diff(indptr))
    lines = [f"p sp {n} {indices.size}"]
    lines += [f"a {a} {b} {w:.17g}" for a, b, w in zip(src.tolist(), (indices + 1).tolist(), weights.tolist())]
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def distances(indptr, indices, weights, mode: str) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra, floyd_warshall

    n = indptr.size - 1
    adjacency = csr_matrix((weights, indices, indptr), shape=(n, n))
    if mode == "p2":
        return floyd_warshall(adjacency, directed=True)
    return dijkstra(adjacency, directed=True)


def answers(dist: np.ndarray) -> dict:
    """Radius, diameter, every center and every peripheral pair (unordered),
    in row convention, plus what the direction check needs: each vertex's
    eccentricity with every pair at its smaller and at its larger summed
    value, and both values of every pair that may be peripheral."""
    if np.isinf(dist).any():
        raise ValueError("reference graph is disconnected")
    row_max = dist.max(axis=1)
    radius = float(row_max.min())
    diameter = float(row_max.max())
    a, b = np.nonzero(dist == diameter)
    pairs = sorted({(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist()) if x != y})
    lo, hi = np.minimum(dist, dist.T), np.maximum(dist, dist.T)
    diameter_floor = float(lo.max())
    a, b = np.nonzero(np.triu(hi, k=1) >= diameter_floor)
    return {
        "radius": radius,
        "centers": np.flatnonzero(row_max == radius).tolist(),
        "diameter": diameter,
        "pairs": [list(p) for p in pairs],
        "ecc_lo": lo.max(axis=1).tolist(),
        "ecc_hi": hi.max(axis=1).tolist(),
        "diameter_floor": diameter_floor,
        "near_pairs": [[x, y, float(dist[x, y]), float(dist[y, x])] for x, y in zip(a.tolist(), b.tolist())],
    }


def prepare(workload, seed: int, cache_dir: str) -> list[dict]:
    """Reference records for every graph of a (workload, seed), cached on disk.

    Each record holds the spec, n, m, CSR fingerprint and reference answers,
    plus the DIMACS path for workloads that read files.
    """
    os.makedirs(cache_dir, exist_ok=True)
    specs = workload.specs(seed)
    cache = os.path.join(cache_dir, f"{workload.name}-s{seed}.json")
    records = None
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            records = json.load(fh)
        if [r["spec"] for r in records] != specs:
            records = None
    if records is None:
        records = []
        for spec_text in specs:
            indptr, indices, weights = build_csr(parse_spec(spec_text))
            record = {
                "spec": spec_text,
                "n": int(indptr.size - 1),
                "m": int(indices.size // 2),
                "fingerprint": fingerprint(indptr, indices, weights),
            }
            record.update(answers(distances(indptr, indices, weights, workload.mode)))
            records.append(record)
        tmp = f"{cache}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        os.replace(tmp, cache)
    if workload.source == "dimacs":
        for record in records:
            path = os.path.join(cache_dir, f"graph-{record['fingerprint']}.gr")
            if not os.path.exists(path):
                write_dimacs(path, *build_csr(parse_spec(record["spec"])))
            record["path"] = path
    return records


def check(answer, record: dict) -> tuple[str, str]:
    """("exact", ""), ("direction", why) or ("failed", why); see the module
    docstring. answer is (radius, center, diameter, a, b) in 0-based ids."""
    why = exact_mismatch(answer, record)
    if not why:
        return "exact", ""
    return ("failed" if direction_mismatch(answer, record) else "direction"), why


def exact_mismatch(answer, record: dict) -> str:
    radius, center, diameter, a, b = answer
    if radius != record["radius"]:
        return f"radius {radius!r} != reference {record['radius']!r}"
    if center not in record["centers"]:
        return f"center {center} is not a center"
    if diameter != record["diameter"]:
        return f"diameter {diameter!r} != reference {record['diameter']!r}"
    if [min(a, b), max(a, b)] not in record["pairs"]:
        return f"pair ({a}, {b}) is not a peripheral pair"
    return ""


def direction_mismatch(answer, record: dict) -> str:
    radius, center, diameter, a, b = answer
    ecc_lo, ecc_hi = record["ecc_lo"], record["ecc_hi"]
    if not 0 <= center < len(ecc_lo) or not ecc_lo[center] <= radius <= ecc_hi[center]:
        return f"radius {radius!r} is not the eccentricity of center {center}"
    if radius > min(ecc_hi):
        return f"radius {radius!r} exceeds another vertex's eccentricity"
    values = {(x, y): (dxy, dyx) for x, y, dxy, dyx in record["near_pairs"]}
    if diameter not in values.get((min(a, b), max(a, b)), ()):
        return f"diameter {diameter!r} is not a distance of pair ({a}, {b})"
    if diameter < record["diameter_floor"]:
        return f"diameter {diameter!r} is below another pair's distance"
    return ""
