"""Acceptance suite: seven end-to-end criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they print; without -s pytest still shows them for any failing criterion.

The exactness corpus uses integer weights: integer-valued float64 path sums
are exact in both summation orders, so "exactly equal to the oracle" is
meaningful bitwise. With generic float weights the same path summed from
either end can differ in the last ulp, which is a property of IEEE addition,
not of either algorithm.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from graphmetrics.cli import main
from graphmetrics.diameter import (
    DiameterResult,
    diameter_p1,
    diameter_p2,
)
from graphmetrics.graph import Graph, GraphSpec, generate
from graphmetrics.oracle import (
    apsp_repeated_sssp,
    floyd_warshall,
    scan_diameter,
    scan_metrics,
    scan_radius,
)
from graphmetrics.radius import RadiusResult, find_radius
from graphmetrics.sssp import DistanceProvider


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}: FAIL{suffix}"


# --------------------------------------------------------------------------
# Shared corpus for criteria 1 and 3: 200 sparse-connected graphs with
# n in [5, 300] and m <= 4n, plus 50 complete graphs with n in [4, 100].


@dataclass
class CorpusRecord:
    name: str
    oracle_radius: float
    oracle_diameter: float
    rr: RadiusResult          # on-demand radius search
    dr1: DiameterResult       # on-demand diameter search
    rr2: RadiusResult         # matrix-backed radius search
    dr2: DiameterResult       # matrix-backed diameter search
    center_ecc: float         # true eccentricity of rr.best center
    pair1_dist: float         # true distance of dr1's pair
    pair2_dist: float         # true distance of dr2's pair


def _corpus_specs() -> list[GraphSpec]:
    rng = np.random.default_rng(20260826)
    specs = []
    for i in range(200):
        n = int(rng.integers(5, 301))
        target = int(rng.integers(n - 1, 4 * n + 1))
        specs.append(GraphSpec(kind="sparse", n=n, seed=1000 + i,
                               target_edges=target, integer_weights=True))
    for i in range(50):
        n = int(rng.integers(4, 101))
        specs.append(GraphSpec(kind="complete", n=n, seed=5000 + i,
                               integer_weights=True))
    return specs


def _run_instance(spec: GraphSpec) -> CorpusRecord:
    g = generate(spec)
    matrix = apsp_repeated_sssp(g)
    oracle_radius, _ = scan_radius(matrix)
    oracle_diameter, _ = scan_diameter(matrix)

    p1 = DistanceProvider.on_demand(g)
    rr = find_radius(p1)
    dr1 = diameter_p1(g, rr, p1)

    p2 = DistanceProvider.from_matrix(matrix)
    rr2 = find_radius(p2)
    dr2 = diameter_p2(matrix, rr2, provider=p2)

    M = matrix.values
    return CorpusRecord(
        name=f"{spec.kind}:{spec.n}:seed={spec.seed}",
        oracle_radius=oracle_radius,
        oracle_diameter=oracle_diameter,
        rr=rr, dr1=dr1, rr2=rr2, dr2=dr2,
        center_ecc=float(M[rr.center].max()),
        pair1_dist=float(M[dr1.peripheral_pair[0], dr1.peripheral_pair[1]]),
        pair2_dist=float(M[dr2.peripheral_pair[0], dr2.peripheral_pair[1]]),
    )


@pytest.fixture(scope="session")
def corpus() -> list[CorpusRecord]:
    return [_run_instance(spec) for spec in _corpus_specs()]


def test_criterion_1_exactness(corpus):
    mismatches = []
    for rec in corpus:
        if rec.rr.radius != rec.oracle_radius:
            mismatches.append(f"{rec.name}: R1 radius")
        if rec.rr2.radius != rec.oracle_radius:
            mismatches.append(f"{rec.name}: R2 radius")
        if rec.center_ecc != rec.oracle_radius:
            mismatches.append(f"{rec.name}: center eccentricity")
        if rec.dr1.diameter != rec.oracle_diameter:
            mismatches.append(f"{rec.name}: D1 diameter")
        if rec.dr2.diameter != rec.oracle_diameter:
            mismatches.append(f"{rec.name}: D2 diameter")
        if rec.pair1_dist != rec.oracle_diameter:
            mismatches.append(f"{rec.name}: D1 pair distance")
        if rec.pair2_dist != rec.oracle_diameter:
            mismatches.append(f"{rec.name}: D2 pair distance")
    _verdict(
        "criterion 1 exactness vs oracle on 250 seeded graphs",
        not mismatches,
        "; ".join(mismatches[:5]) if mismatches
        else f"{len(corpus)} instances, 0 mismatches",
    )


def test_criterion_2_cross_oracle_agreement():
    rng = np.random.default_rng(42)
    bad = []
    for i in range(50):
        n = int(rng.integers(4, 81))
        integer = i % 2 == 0
        kind = "sparse" if i % 3 else "complete"
        spec = GraphSpec(kind=kind, n=n, seed=9000 + i,
                         target_edges=3 * n if kind == "sparse" else None,
                         integer_weights=integer)
        g = generate(spec)
        A = apsp_repeated_sssp(g).values
        F = floyd_warshall(g).values
        if integer:
            ok = bool(np.array_equal(A, F))
        else:
            ok = bool(np.allclose(A, F, rtol=1e-9, atol=0.0))
        if not ok:
            bad.append(f"{kind}:{n}:seed={9000 + i}")
    _verdict(
        "criterion 2 repeated-Dijkstra vs Floyd-Warshall on 50 seeded graphs",
        not bad,
        "; ".join(bad) if bad else "exact for integer weights, <=1e-9 rel otherwise",
    )


def test_criterion_3_bound_invariants(corpus):
    violations = []
    for rec in corpus:
        for rr, tag in ((rec.rr, "R1"), (rec.rr2, "R2")):
            lowers = [lo for lo, _ in rr.bound_trace]
            uppers = [hi for _, hi in rr.bound_trace]
            if any(b < a for a, b in zip(lowers, lowers[1:])):
                violations.append(f"{rec.name}: {tag} r_lower decreased")
            if any(b > a for a, b in zip(uppers, uppers[1:])):
                violations.append(f"{rec.name}: {tag} r_upper increased")
            if any(lo > rec.oracle_radius or hi < rec.oracle_radius
                   for lo, hi in rr.bound_trace):
                violations.append(f"{rec.name}: {tag} bounds miss oracle radius")
        for dr, tag in ((rec.dr1, "D1"), (rec.dr2, "D2")):
            t = dr.d_lower_trace
            if any(b < a for a, b in zip(t, t[1:])):
                violations.append(f"{rec.name}: {tag} d_lower decreased")
            if any(v > rec.oracle_diameter for v in t):
                violations.append(f"{rec.name}: {tag} d_lower exceeds diameter")
            if t[-1] != rec.oracle_diameter:
                violations.append(f"{rec.name}: {tag} final d_lower != diameter")
    _verdict(
        "criterion 3 bound traces monotone and sandwich the oracle values",
        not violations,
        "; ".join(violations[:5]) if violations else f"{len(corpus)} instances",
    )


def test_criterion_4_sssp_economy():
    r_counts, d_counts = [], []
    for seed in range(10):
        g = generate(GraphSpec(kind="complete", n=1000, seed=seed))
        provider = DistanceProvider.on_demand(g)
        rr = find_radius(provider)
        r_counts.append(rr.sssp_count)
        dr = diameter_p1(g, rr, provider)
        d_counts.append(dr.sssp_count)  # provider total: radius + diameter
    r_mean = sum(r_counts) / len(r_counts)
    d_mean = sum(d_counts) / len(d_counts)
    _verdict(
        "criterion 4 SSSP economy on 10 complete graphs n=1000",
        r_mean <= 30 and d_mean <= 60,
        f"mean R1 sssp_count={r_mean:.1f} (<=30), mean D1 total={d_mean:.1f} (<=60)",
    )


def _best_block_seconds(fn, runs: int = 10, blocks: int = 3) -> float:
    """Mean seconds per run in the fastest block; robust to scheduler noise."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(runs):
            fn()
        best = min(best, (time.perf_counter() - t0) / runs)
    return best


def test_criterion_5_problem2_speedup():
    rc2 = r2 = dc2 = d2 = 0.0
    for seed in (0, 1, 2):
        g = generate(GraphSpec(kind="complete", n=1000, seed=seed))
        matrix = floyd_warshall(g)

        def run_r2():
            find_radius(DistanceProvider.from_matrix(matrix))

        def run_d2():
            provider = DistanceProvider.from_matrix(matrix)
            diameter_p2(matrix, find_radius(provider), provider=provider)

        rc2 += _best_block_seconds(lambda: scan_radius(matrix))
        r2 += _best_block_seconds(run_r2)
        dc2 += _best_block_seconds(lambda: scan_diameter(matrix))
        d2 += _best_block_seconds(run_d2)
    r_speedup = rc2 / r2
    d_speedup = dc2 / d2
    _verdict(
        "criterion 5 matrix-backed search beats full-matrix scans",
        r_speedup >= 5.0 and d_speedup >= 2.0,
        f"R2 {r_speedup:.1f}x (>=5x), D2 {d_speedup:.1f}x (>=2x), n=1000",
    )


def test_criterion_6_pruning_soundness():
    rng = np.random.default_rng(7)
    violations = 0
    for i in range(50):
        n = int(rng.integers(4, 121))
        kind = "complete" if i % 4 == 0 else "sparse"
        # Integer weights for the same reason as the exactness corpus: with
        # generic floats a pair distance can exceed the center-sum bound by
        # one ulp of summation-order noise, which is not a pruning violation.
        spec = GraphSpec(kind=kind, n=n, seed=3000 + i,
                         target_edges=4 * n if kind == "sparse" else None,
                         integer_weights=True)
        g = generate(spec)
        matrix = apsp_repeated_sssp(g)
        M = matrix.values
        provider = DistanceProvider.from_matrix(matrix)
        rr = find_radius(provider)
        c = rr.center
        d_l = M[rr.far_pair]
        diameter = float(M.max())

        # Half-bound row filter: if both endpoints sit within d/2 of the
        # center for any d >= the current lower bound, their distance is <= d.
        for d in (d_l, diameter):
            half = M[c] <= d / 2.0
            idx = np.flatnonzero(half)
            if idx.size:
                samples = rng.integers(0, idx.size, size=(1000, 2))
                ii, jj = idx[samples[:, 0]], idx[samples[:, 1]]
                violations += int(np.count_nonzero(M[ii, jj] > d))

        # Pair filter: every pair skipped because its center-sum cannot beat
        # the bound really has distance <= the bound.
        sums = M[c][:, None] + M[c][None, :]
        skipped = sums <= d_l
        violations += int(np.count_nonzero(M[skipped] > d_l))
    _verdict(
        "criterion 6 pruning rules sound against oracle matrices",
        violations == 0,
        f"{violations} violations across 50 graphs",
    )


def _canonical_reports(path) -> str:
    reports = json.loads(path.read_text())
    for r in reports:
        for key in [k for k in r if k.endswith("_ms") or k == "speedup"]:
            del r[key]
    return json.dumps(reports, sort_keys=True)


def test_criterion_7_determinism(tmp_path):
    commands = [
        ["metrics", "--gen", "sparse:200:600:seed=11", "--mode", "p1",
         "--target", "both"],
        ["metrics", "--gen", "complete:120:seed=4", "--mode", "p2"],
        ["oracle", "--gen", "sparse:60:120:seed=5"],
    ]
    stable = True
    detail = ""
    for k, cmd in enumerate(commands):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"c{k}_{run}.json"
            assert main(cmd + ["--json", str(out)]) == 0
            outs.append(_canonical_reports(out))
        if outs[0] != outs[1]:
            stable = False
            detail = f"command {' '.join(cmd)} differs between runs"
            break
    _verdict(
        "criterion 7 byte-identical JSON reports across repeated runs",
        stable,
        detail or f"{len(commands)} commands, timing fields excluded",
    )
