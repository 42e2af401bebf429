"""Command-line interface: metric search, oracle baselines, benchmarking and
graph generation.

Generator specs are strings of the form `kind:n[:m][:key=value...]`, e.g.
`complete:1000:seed=1` or `sparse:100:150:seed=7:wlo=1:whi=10:int=1`.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from .diameter import diameter_p1, diameter_p2
from .graph import (
    DimacsParseError,
    Graph,
    GraphSpec,
    GraphValidationError,
    generate,
    load_dimacs,
    unreachable_from,
    write_dimacs,
)
from .oracle import (
    DEFAULT_MATRIX_CAP,
    apsp_repeated_sssp,
    build_matrix,
    choose_baseline,
    scan_diameter,
    scan_metrics,
    scan_radius,
)
from .radius import find_radius
from .report import BenchRow, RunReport, write_bench_csv, write_reports_json
from .sssp import DisconnectedGraphError, DistanceProvider


def parse_gen_spec(text: str) -> GraphSpec:
    parts = text.split(":")
    if len(parts) < 2:
        raise GraphValidationError(f"generator spec needs kind:n, got {text!r}")
    kind = parts[0]
    if kind == "sparse-connected":
        kind = "sparse"
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphValidationError(f"bad vertex count in generator spec {text!r}") from None
    rest = parts[2:]
    target = None
    if rest and "=" not in rest[0]:
        target = int(rest[0])
        rest = rest[1:]
    kwargs: dict = {}
    lo, hi = GraphSpec.weight_range  # the generator's own default
    for item in rest:
        if "=" not in item:
            raise GraphValidationError(f"bad generator option {item!r}")
        key, value = item.split("=", 1)
        if key == "seed":
            kwargs["seed"] = int(value)
        elif key == "wlo":
            lo = float(value)
        elif key == "whi":
            hi = float(value)
        elif key == "int":
            kwargs["integer_weights"] = bool(int(value))
        else:
            raise GraphValidationError(f"unknown generator option {key!r}")
    return GraphSpec(
        kind=kind, n=n, target_edges=target, weight_range=(lo, hi), **kwargs
    )


def _resolve_input(args) -> tuple[Graph, str, int | None]:
    if getattr(args, "input", None):
        return load_dimacs(args.input), os.path.basename(args.input), None
    spec = parse_gen_spec(args.gen)
    return generate(spec), args.gen, spec.seed


def _check_connected_or_fail(g: Graph) -> None:
    bad = unreachable_from(g)
    if bad is not None:
        raise DisconnectedGraphError(0, bad)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def run_metrics(
    g: Graph,
    name: str,
    seed: int | None,
    mode: str,
    target: str,
    baseline: str = "auto",
    max_matrix_n: int = DEFAULT_MATRIX_CAP,
) -> list[RunReport]:
    """Run the fast searches; one report per algorithm executed."""
    _check_connected_or_fail(g)
    reports: list[RunReport] = []
    matrix_build_ms = None
    if mode == "p2":
        t0 = time.perf_counter()
        matrix = build_matrix(g, baseline=baseline, max_n=max_matrix_n)
        matrix_build_ms = _ms(time.perf_counter() - t0)
        provider = DistanceProvider.from_matrix(matrix)
    else:
        provider = DistanceProvider.on_demand(g)

    t0 = time.perf_counter()
    rr = find_radius(provider)
    radius_ms = _ms(time.perf_counter() - t0)
    if target in ("radius", "both"):
        reports.append(
            RunReport(
                name=name,
                n=g.n,
                m=g.m,
                algo="R1" if mode == "p1" else "R2",
                radius=rr.radius,
                center=g.report_id(rr.center),
                sssp_count=rr.sssp_count,
                sssp_share=rr.sssp_count / g.n,
                rows_accessed=rr.rows_accessed,
                elapsed_ms=radius_ms,
                matrix_build_ms=matrix_build_ms,
                seed=seed,
            )
        )
    if target in ("diameter", "both"):
        t0 = time.perf_counter()
        if mode == "p2":
            dr = diameter_p2(matrix, rr, provider=provider)
        else:
            dr = diameter_p1(g, rr, provider)
        diameter_ms = _ms(time.perf_counter() - t0)
        a, b = dr.peripheral_pair
        reports.append(
            RunReport(
                name=name,
                n=g.n,
                m=g.m,
                algo="D1" if mode == "p1" else "D2",
                diameter=dr.diameter,
                pair=[g.report_id(a), g.report_id(b)],
                sssp_count=dr.sssp_count,
                sssp_share=dr.sssp_count / g.n,
                rows_accessed=dr.rows_accessed,
                elapsed_ms=radius_ms + diameter_ms,
                matrix_build_ms=matrix_build_ms,
                seed=seed,
            )
        )
    return reports


def run_oracle(
    g: Graph,
    name: str,
    seed: int | None,
    baseline: str = "auto",
    max_matrix_n: int = DEFAULT_MATRIX_CAP,
):
    _check_connected_or_fail(g)
    which = choose_baseline(g, baseline)
    t0 = time.perf_counter()
    matrix = build_matrix(g, baseline=which, max_n=max_matrix_n)
    build_s = time.perf_counter() - t0
    metrics = scan_metrics(matrix)
    sssp_count = g.n if which == "dijkstra" else 0
    common = dict(
        name=name,
        n=g.n,
        m=g.m,
        sssp_count=sssp_count,
        sssp_share=sssp_count / g.n,
        rows_accessed=g.n,
        seed=seed,
    )
    reports = [
        RunReport(
            algo="RC1",
            radius=metrics.radius,
            center=g.report_id(metrics.all_centers[0]),
            elapsed_ms=_ms(build_s + metrics.elapsed),
            **common,
        ),
        RunReport(
            algo="DC1",
            diameter=metrics.diameter,
            pair=[
                g.report_id(v)
                for v in (metrics.all_peripheral_pairs[0] if metrics.all_peripheral_pairs else (0, 0))
            ],
            elapsed_ms=_ms(build_s + metrics.elapsed),
            **common,
        ),
    ]
    return metrics, reports


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _bench_input(
    g: Graph, name: str, repeats: int, mode: str, baseline: str, max_matrix_n: int
) -> list[BenchRow]:
    """Mean times of the full scans (RC, DC) and the pivot searches (R, D).

    p1 times the repeated-Dijkstra APSP as part of each scan. p2 builds the
    matrix once, untimed, and warms up before timing.
    """
    p2 = mode == "p2"
    matrix = build_matrix(g, baseline=baseline, max_n=max_matrix_n) if p2 else None

    def fresh() -> DistanceProvider:
        return DistanceProvider.from_matrix(matrix) if p2 else DistanceProvider.on_demand(g)

    def radius_then_diameter(provider: DistanceProvider):
        rr = find_radius(provider)
        return diameter_p2(matrix, rr, provider=provider) if p2 else diameter_p1(g, rr, provider)

    if p2:
        # untimed warm-up; the paper's timings also come from consecutive runs
        scan_radius(matrix)
        scan_diameter(matrix)
        radius_then_diameter(fresh())
    total = dict.fromkeys(("RC", "R", "DC", "D"), 0.0)
    for _ in range(repeats):
        M, apsp_s = (matrix, 0.0) if p2 else _timed(apsp_repeated_sssp, g)
        (radius, _), s = _timed(scan_radius, M)
        total["RC"] += apsp_s + s
        (diameter, _), s = _timed(scan_diameter, M)
        total["DC"] += apsp_s + s
        rr, s = _timed(find_radius, fresh())
        total["R"] += s
        dr, s = _timed(radius_then_diameter, fresh())
        total["D"] += s

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


def run_bench(
    inputs: list[tuple[str, str]],
    repeats: int,
    mode: str,
    baseline: str = "auto",
    max_matrix_n: int = DEFAULT_MATRIX_CAP,
) -> list[BenchRow]:
    """inputs: list of ("path"|"gen", value); failures land in the errors column."""
    rows: list[BenchRow] = []
    for source, value in inputs:
        name = os.path.basename(value) if source == "path" else value
        try:
            g = load_dimacs(value) if source == "path" else generate(parse_gen_spec(value))
            _check_connected_or_fail(g)
            rows.extend(_bench_input(g, name, repeats, mode, baseline, max_matrix_n))
        except (DimacsParseError, GraphValidationError, DisconnectedGraphError,
                MemoryError, OSError) as exc:
            rows.append(BenchRow(name=name, errors=str(exc)))
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
    p.add_argument("--baseline", choices=["auto", "dijkstra", "floyd"], default="auto")
    p.add_argument("--max-matrix-n", type=int, default=DEFAULT_MATRIX_CAP)
    p.add_argument("--json", help="write JSON report to this path")

    p = sub.add_parser("oracle", help="run the brute-force baselines")
    _add_input_args(p)
    p.add_argument("--baseline", choices=["auto", "dijkstra", "floyd"], default="auto")
    p.add_argument("--max-matrix-n", type=int, default=DEFAULT_MATRIX_CAP)
    p.add_argument("--json", help="write JSON report to this path")

    p = sub.add_parser("bench", help="benchmark suite, CSV output")
    _add_input_args(p, repeatable=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--mode", choices=["p1", "p2"], default="p1")
    p.add_argument("--baseline", choices=["auto", "dijkstra", "floyd"], default="auto")
    p.add_argument("--max-matrix-n", type=int, default=DEFAULT_MATRIX_CAP)
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
        if args.command == "metrics":
            g, name, seed = _resolve_input(args)
            reports = run_metrics(
                g, name, seed, args.mode, args.target,
                baseline=args.baseline, max_matrix_n=args.max_matrix_n,
            )
            _print_reports(reports)
            if args.json:
                write_reports_json(reports, args.json)
            return 0
        if args.command == "oracle":
            g, name, seed = _resolve_input(args)
            metrics, reports = run_oracle(
                g, name, seed, baseline=args.baseline, max_matrix_n=args.max_matrix_n
            )
            _print_reports(reports)
            print(
                f"centers: {[g.report_id(c) for c in metrics.all_centers]}  "
                f"peripheral pairs: "
                f"{[(g.report_id(a), g.report_id(b)) for a, b in metrics.all_peripheral_pairs]}"
            )
            if args.json:
                write_reports_json(reports, args.json)
            return 0
        if args.command == "bench":
            inputs = [("path", p) for p in args.input] + [("gen", s) for s in args.gen]
            if not inputs:
                print("bench: no inputs given", file=sys.stderr)
                return 2
            rows = run_bench(
                inputs, args.repeats, args.mode,
                baseline=args.baseline, max_matrix_n=args.max_matrix_n,
            )
            if args.csv:
                with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                    write_bench_csv(rows, fh)
            else:
                write_bench_csv(rows, sys.stdout)
            return 0
    except DisconnectedGraphError as exc:
        print(f"error: graph is disconnected; {exc}", file=sys.stderr)
        return 2
    except (DimacsParseError, GraphValidationError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
