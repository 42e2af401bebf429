"""Command-line interface: metric search, oracle baselines, benchmarking and
graph generation.

Generator specs are strings of the form `kind:n[:m][:key=value...]`, e.g.
`complete:1000:seed=1` or `sparse:100:150:seed=7:wlo=1:whi=10:int=1`.
Reports give DIMACS vertex ids: vertex u of the graph is reported as u + 1.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from .diameter import find_diameter
from .graph import (
    DimacsParseError,
    Graph,
    GraphSpec,
    GraphValidationError,
    generate,
    load_dimacs,
    write_dimacs,
)
from .oracle import (
    build_matrix,
    choose_baseline,
    dijkstra_matrix,
    scan_diameter,
    scan_metrics,
    scan_radius,
)
from .radius import find_radius
from .report import BenchRow, RunReport, write_bench_csv, write_reports_json
from .sssp import DisconnectedGraphError, DistanceMatrix, DistanceProvider


def parse_gen_spec(text: str) -> GraphSpec:
    def number(convert, value: str, field: str):
        try:
            if not value.isascii() or any(c in "_+" or c.isspace() for c in value):
                # the DIMACS numeral rule: int() and float() also read "1_0",
                # "+1", " 1" and non-ASCII digits
                raise ValueError
            return convert(value)
        except ValueError:
            raise GraphValidationError(
                f"bad {field} {value!r} in generator spec {text!r}"
            ) from None

    parts = text.split(":")
    if len(parts) < 2:
        raise GraphValidationError(f"generator spec needs kind:n, got {text!r}")
    kind = parts[0]
    if kind == "sparse-connected":
        kind = "sparse"
    n = number(int, parts[1], "vertex count")
    rest = parts[2:]
    target = None
    if rest and "=" not in rest[0]:
        if kind == "complete":
            raise GraphValidationError(
                f"complete graph takes no edge count, got {rest[0]!r} in generator spec {text!r}"
            )
        target = number(int, rest[0], "edge count")
        rest = rest[1:]
    kwargs: dict = {}
    lo, hi = GraphSpec.weight_range  # the generator's own default
    seen: set[str] = set()
    for item in rest:
        if "=" not in item:
            raise GraphValidationError(f"bad generator option {item!r}")
        key, value = item.split("=", 1)
        if key in seen:
            raise GraphValidationError(
                f"repeated generator option {key!r} in generator spec {text!r}"
            )
        seen.add(key)
        if key == "seed":
            kwargs["seed"] = number(int, value, "seed")
        elif key == "wlo":
            lo = number(float, value, "wlo")
        elif key == "whi":
            hi = number(float, value, "whi")
        elif key == "int":
            kwargs["integer_weights"] = number(int, value, "int")
        else:
            raise GraphValidationError(f"unknown generator option {key!r}")
    return GraphSpec(
        kind=kind, n=n, target_edges=target, weight_range=(lo, hi), **kwargs
    )


def _load(source: str, value: str) -> tuple[Graph, str, int | None]:
    """Read a DIMACS file (source "path") or generate a spec ("gen").

    Returns the graph, its report name and its generator seed. A disconnected
    graph is found later, by the first SSSP or matrix build, which raises
    DisconnectedGraphError.
    """
    if source == "path":
        return load_dimacs(value), os.path.basename(value), None
    spec = parse_gen_spec(value)
    return generate(spec), value, spec.seed


# Every fault reported as one line (exit 2, or bench's errors column)
# instead of a traceback.
_FAULTS = (DisconnectedGraphError, DimacsParseError, GraphValidationError, MemoryError, OSError)


def _fault(exc: Exception) -> str:
    """The fault's text. A disconnected graph names its two vertices in
    DIMACS ids, as every report gives them. A MemoryError often carries no
    text (a failed allocation inside numpy or the interpreter), so it gets
    one."""
    if isinstance(exc, DisconnectedGraphError):
        return f"vertex {exc.vertex + 1} is unreachable from vertex {exc.source + 1}"
    if isinstance(exc, MemoryError) and not str(exc):
        return "out of memory"
    return str(exc)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _search(g: Graph, matrix: DistanceMatrix | None, target: str = "both"):
    """R, then D unless target is "radius", on one fresh provider: over the
    matrix when there is one (p2), else on demand (p1). Returns each result
    with its seconds, D's result None when D did not run."""
    provider = (DistanceProvider.on_demand(g) if matrix is None
                else DistanceProvider.from_matrix(matrix))
    rr, radius_s = _timed(find_radius, provider)
    if target == "radius":
        return rr, radius_s, None, 0.0
    dr, diameter_s = _timed(find_diameter, rr, provider)
    return rr, radius_s, dr, diameter_s


def _report(
    g: Graph, name: str, seed: int | None, algo: str, seconds: float,
    sssp_count: int, rows_accessed: int, **fields,
) -> RunReport:
    return RunReport(
        name=name, n=g.n, m=g.m, algo=algo, sssp_count=sssp_count,
        sssp_share=sssp_count / g.n, rows_accessed=rows_accessed,
        elapsed_ms=_ms(seconds), seed=seed, **fields,
    )


def run_metrics(
    g: Graph, name: str, seed: int | None, mode: str, target: str
) -> list[RunReport]:
    """Run the fast searches; one report per algorithm executed."""
    matrix = matrix_build_ms = None
    if mode == "p2":
        matrix, build_s = _timed(build_matrix, g)
        matrix_build_ms = _ms(build_s)
    rr, radius_s, dr, diameter_s = _search(g, matrix, target)
    reports: list[RunReport] = []
    if target != "diameter":
        reports.append(_report(
            g, name, seed, "R" + mode[1], radius_s,  # "p1" -> R1
            rr.sssp_count, rr.rows_accessed, matrix_build_ms=matrix_build_ms,
            radius=rr.radius, center=rr.center + 1,
        ))
    if dr is not None:
        reports.append(_report(
            g, name, seed, "D" + mode[1], radius_s + diameter_s,
            dr.sssp_count, dr.rows_accessed, matrix_build_ms=matrix_build_ms,
            diameter=dr.diameter, pair=[v + 1 for v in dr.peripheral_pair],
        ))
    return reports


def run_oracle(g: Graph, name: str, seed: int | None):
    matrix, build_s = _timed(build_matrix, g)
    metrics, scan_s = _timed(scan_metrics, matrix)
    sssp_count = g.n if choose_baseline(g) == "dijkstra" else 0
    pair = metrics.all_peripheral_pairs[0]
    reports = [
        _report(g, name, seed, "RC1", build_s + scan_s, sssp_count, g.n,
                radius=metrics.radius, center=metrics.all_centers[0] + 1),
        _report(g, name, seed, "DC1", build_s + scan_s, sssp_count, g.n,
                diameter=metrics.diameter, pair=[v + 1 for v in pair]),
    ]
    return metrics, reports


def _bench_input(g: Graph, name: str, repeats: int, mode: str) -> list[BenchRow]:
    """Mean times of the full scans (RC, DC) and the pivot searches (R, D).

    Each repeat runs R and then D on one fresh provider; D's time includes
    R's, as in the metrics report.
    p1 times an APSP as part of each scan, built by dijkstra_matrix so that
    the scans run the same SSSP kernel as R1 and D1.
    p2 builds the matrix once, untimed, and warms up before timing.
    """
    p2 = mode == "p2"
    matrix = build_matrix(g) if p2 else None
    if p2:
        # untimed warm-up; the paper's timings also come from consecutive runs
        scan_radius(matrix)
        scan_diameter(matrix)
        _search(g, matrix)
    total = dict.fromkeys(("RC", "R", "DC", "D"), 0.0)
    for _ in range(repeats):
        M, apsp_s = (matrix, 0.0) if p2 else _timed(dijkstra_matrix, g)
        (radius, _), s = _timed(scan_radius, M)
        total["RC"] += apsp_s + s
        (diameter, _), s = _timed(scan_diameter, M)
        total["DC"] += apsp_s + s
        rr, radius_s, dr, diameter_s = _search(g, matrix)
        total["R"] += radius_s
        total["D"] += radius_s + diameter_s

    mean = {algo: t / repeats for algo, t in total.items()}
    n, suffix = g.n, "2" if p2 else "1"
    scan_sssp = 0 if p2 else n

    def row(algo, value, sssp_count, speedup=None):
        return BenchRow(
            name, n, g.m, algo + suffix, value, sssp_count, sssp_count / n,
            _ms(mean[algo]), speedup,
        )

    return [
        row("RC", radius, scan_sssp),
        row("R", radius, rr.sssp_count, mean["RC"] / mean["R"]),
        row("DC", diameter, scan_sssp),
        row("D", diameter, dr.sssp_count, mean["DC"] / mean["D"]),
    ]


def run_bench(inputs: list[tuple[str, str]], repeats: int, mode: str) -> list[BenchRow]:
    """inputs: list of ("path"|"gen", value); failures land in the errors column."""
    rows: list[BenchRow] = []
    for source, value in inputs:
        name = os.path.basename(value) if source == "path" else value  # for failed loads too
        try:
            g, _, _ = _load(source, value)
            rows.extend(_bench_input(g, name, repeats, mode))
        except _FAULTS as exc:
            rows.append(BenchRow(name=name, errors=_fault(exc)))
    return rows


def _print_reports(reports: list[RunReport]) -> None:
    for r in reports:
        bits = [f"{r.algo}: {r.name} n={r.n} m={r.m}"]
        if r.radius is not None:
            bits.append(f"radius={r.radius:g} center={r.center}")
        if r.diameter is not None:
            bits.append(f"diameter={r.diameter:g} pair={tuple(r.pair)}")
        bits.append(
            f"sssp={r.sssp_count} share={r.sssp_share:.4g} "
            f"rows={r.rows_accessed} elapsed={r.elapsed_ms:.3f}ms"
        )
        if r.matrix_build_ms is not None:
            bits.append(f"matrix_build={r.matrix_build_ms:.1f}ms")
        print("  ".join(bits))


def _add_input_args(p: argparse.ArgumentParser, repeatable: bool = False) -> None:
    if repeatable:
        p.add_argument("--input", action="append", default=[], help="DIMACS .gr file")
        p.add_argument("--gen", action="append", default=[], help="generator spec kind:n[:m]:seed=s")
    else:
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--input", help="DIMACS .gr file")
        grp.add_argument("--gen", help="generator spec kind:n[:m]:seed=s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmetrics",
        description="Exact radius/center/diameter search on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="run the fast pivot-based searches")
    _add_input_args(p)
    p.add_argument("--mode", choices=["p1", "p2"], default="p1")
    p.add_argument("--target", choices=["radius", "diameter", "both"], default="both")
    p.add_argument("--json", help="write JSON report to this path")

    p = sub.add_parser("oracle", help="run the brute-force baselines")
    _add_input_args(p)
    p.add_argument("--json", help="write JSON report to this path")

    p = sub.add_parser("bench", help="benchmark suite, CSV output")
    _add_input_args(p, repeatable=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--mode", choices=["p1", "p2"], default="p1")
    p.add_argument("--csv", help="write CSV report to this path (default stdout)")

    p = sub.add_parser("gen", help="generate a graph and write DIMACS")
    p.add_argument("--gen", required=True, help="generator spec kind:n[:m]:seed=s")
    p.add_argument("--output", required=True, help="output .gr path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            g = generate(parse_gen_spec(args.gen))
            write_dimacs(g, args.output)
            print(f"wrote {args.output}: n={g.n} m={g.m} (arcs={2 * g.m})")
            return 0
        if args.command in ("metrics", "oracle"):
            g, name, seed = _load("path", args.input) if args.input else _load("gen", args.gen)
            summary = None
            if args.command == "metrics":
                reports = run_metrics(g, name, seed, args.mode, args.target)
            else:
                metrics, reports = run_oracle(g, name, seed)
                summary = (
                    f"centers: {[c + 1 for c in metrics.all_centers]}  "
                    f"peripheral pairs: "
                    f"{[(a + 1, b + 1) for a, b in metrics.all_peripheral_pairs]}"
                )
            _print_reports(reports)
            if summary:
                print(summary)
            if args.json:
                write_reports_json(reports, args.json)
            return 0
        if args.command == "bench":
            inputs = [("path", p) for p in args.input] + [("gen", s) for s in args.gen]
            if not inputs:
                print("bench: no inputs given", file=sys.stderr)
                return 2
            if args.repeats < 1:
                print(f"bench: --repeats must be at least 1, got {args.repeats}", file=sys.stderr)
                return 2
            rows = run_bench(inputs, args.repeats, args.mode)
            if args.csv:
                with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                    write_bench_csv(rows, fh)
            else:
                write_bench_csv(rows, sys.stdout)
            return 0
    except _FAULTS as exc:
        lead = "graph is disconnected; " if isinstance(exc, DisconnectedGraphError) else ""
        print(f"error: {lead}{_fault(exc)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
