"""Benchmark for graphmetrics: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner builds the seeded inputs and their
reference answers (cached per workload and seed under perfbench/.cache),
starts a fresh worker process that drives the package from src/ and times
it, checks every answer the worker reports, prints each metric with its unit
and ends with one JSON line. With --trace 0 that line holds the end-to-end
metrics, with --trace 1 the per-layer ones. See perfbench/DESIGN.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import reference
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")
WORKER_TIMEOUT_S = 170


def declared_metrics(root: str) -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json lists them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


# Printed with the per-layer table but kept out of the JSON line: they are
# the raw figures behind the traced-run checks, not figures of a layer.
CHECK_FIGURES = {
    "diameter.rows_counted": "count",
    "solve_traced_s": "s",
    "trace.unaccounted_s": "s",
    "check.program_sssp": "count",
    "check.program_rows": "count",
}


def run_worker(workload, records, args) -> dict:
    root = os.getcwd()
    items = [r["path"] if workload.source == "dimacs" else r["spec"] for r in records]
    spans = os.path.join(CACHE, f"spans-{workload.name}-s{args.seed}.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload.name, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spans", spans, *items,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify(records, result) -> tuple[int, int, list[str]]:
    """Failed answers, answers exact only up to summation direction (see
    reference.py), and the problems found, graph by graph."""
    problems = [
        f"g{i}: {message.strip().splitlines()[-1]} ({count}x)" for i, message, count in result["errors"]
    ]
    answered = sum(sum(a.values()) for a in result["answers"])
    failed = result["attempted"] - answered  # answers that raised
    direction = 0
    for i, (record, built, answers) in enumerate(zip(records, result["graphs"], result["answers"])):
        expected = {k: record[k] for k in ("n", "m", "fingerprint")}
        if built != expected:
            problems.append(f"g{i}: built {built}, spec {record['spec']} gives {expected}")
            failed += sum(answers.values())
            continue
        for key, count in answers.items():
            status, why = reference.check(json.loads(key), record)
            if status == "failed":
                problems.append(f"g{i}: {why}")
                failed += count
            elif status == "direction":
                direction += 1
    return failed, direction, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "graphmetrics", "__init__.py")):
        print("error: run from a graphmetrics checkout (src/graphmetrics not found)", file=sys.stderr)
        return 2

    end_to_end, per_layer = declared_metrics(os.getcwd())
    workload = WORKLOADS[args.workload]
    records = reference.prepare(workload, args.seed, CACHE)
    result = run_worker(workload, records, args)
    failed, direction, problems = verify(records, result)
    attempted = result["attempted"]
    correct = failed == 0 and not problems

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  mode {workload.mode}")
    for i, (record, built, c) in enumerate(zip(records, result["graphs"], result["counters"])):
        same = built and built["fingerprint"] == record["fingerprint"]
        print(f"  g{i} {record['spec']}  n={record['n']} m={record['m']} csr={record['fingerprint']}"
              f"  built={'same' if same else built}" + (f"  sssp={c['sssp']}" if c else ""))
    counters = [c for c in result["counters"] if c]
    sssp_per_answer = sum(c["sssp"] for c in counters) / len(counters) if counters else 0.0
    summary = {
        "setup_s": result["setup_s"],
        "solve_s": result["solve_s"],
        "solve_probes": result["solve_probes"],
        "sssp_per_answer": sssp_per_answer,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    units = {"solve_s": "s", "sssp_per_answer": "count", "failed_frac": "ratio", **end_to_end}
    for name, value in summary.items():
        print(f"  {name:<18} {value:.6g} {units[name]}")
    print(f"  ({attempted} answers; {result['setup_rounds']} set-up and {result['solve_rounds']} "
          f"solve rounds in {result['measured_s']:.1f} s; median probe {result['probe_ms']:.3f} ms)")
    for problem in problems:
        print(f"  FAILED {problem}")
    if direction:
        print(f"  NOTE: {direction} distinct answers match the reference only with a pair's distance "
              "summed from its other end (one ulp); counted as correct")

    if args.trace:
        layers = dict(result["layers"])
        layers["solve_s"] = result["solve_s"]
        layers["sssp_per_answer"] = sssp_per_answer
        layers["solve_probes_per_sssp"] = result["solve_probes_per_sssp"]
        layers["check.direction_only"] = direction
        for name, unit in {**per_layer, **CHECK_FIGURES}.items():
            print(f"  {name:<28} {layers[name]:.6g} {unit}")
        if layers["check.counter_mismatches"]:
            print(f"  COUNTER MISMATCH: program sssp_count {layers['check.program_sssp']} vs traced "
                  f"{layers['sssp.calls']}; rows_accessed {layers['check.program_rows']} vs traced "
                  f"{layers['provider.rows']}")
        if layers["diameter.vertices_scanned"] and not layers["diameter.rows_counted"]:
            print(f"  NOTE: diameter_p2 read {layers['diameter.vertices_scanned']:g} scanned rows "
                  "directly from the matrix; rows_accessed does not count them")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
