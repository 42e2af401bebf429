"""The timed part of one benchmark run, in a fresh process of its own.

Drives the package the way `graphmetrics metrics` does: input ->
check_connected -> [build_matrix] -> find_radius -> diameter_p1/diameter_p2.
It times set-up and solve, records every answer and the package's own
counters, and prints one JSON object. It never sees the reference answers;
the runner checks them. With --trace 1 it then repeats the work with timing
wrappers installed (see tracer.py) and adds per-layer figures.

Usage (from the repository root, with src on PYTHONPATH):
    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1
        --spans OUT.jsonl ITEM [ITEM ...]
where each ITEM is a DIMACS path or a generator spec, one per graph.
"""
from __future__ import annotations

import argparse
import heapq
import importlib
import json
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np

from reference import fingerprint
from tracer import Tracer, summarize
from workloads import WORKLOADS

graph = importlib.import_module("graphmetrics.graph")
sssp = importlib.import_module("graphmetrics.sssp")
radius = importlib.import_module("graphmetrics.radius")
diameter = importlib.import_module("graphmetrics.diameter")
oracle = importlib.import_module("graphmetrics.oracle")
cli = importlib.import_module("graphmetrics.cli")

SETUP_SHARE = 0.2  # of --seconds spent repeating set-up
MIN_SETUP_ROUNDS = 3
MAX_SETUP_ROUNDS = 100
MAX_SOLVE_ROUNDS = {"p1": 100, "p2": 1000}
TRACE_ROUNDS = {"p1": 3, "p2": 21}
TRACE_SCAN_REPEATS = 11
PROBE_EVERY_S = 0.05


class Probe:
    """A fixed reference Dijkstra in plain Python and numpy, sharing no code
    with the package, timed next to each answer.

    Its run time follows the machine's current speed, which on a shared
    machine can drift by up to 2x within a minute. An answer's time divided
    by the probe's is steady where the raw time is not. The probe's graph has
    the workload's kind of rows, because sparse rows (heap work) and dense
    rows (vector work) slow down differently: 300 vertices of degree 4, or a
    complete graph on 120.
    """

    def __init__(self, dense: bool, seed=0):
        rng = np.random.default_rng(seed)
        self.n = n = 120 if dense else 300
        self.neighbours = [
            np.delete(np.arange(n), u) if dense else rng.integers(0, n, 4) for u in range(n)
        ]
        self.weights = [rng.random(nbrs.size) for nbrs in self.neighbours]
        self.last = self.run()
        self.at = perf_counter()
        self.history = [self.last]

    def run(self) -> float:
        t0 = perf_counter()
        dist = np.full(self.n, np.inf)
        dist[0] = 0.0
        done = np.zeros(self.n, dtype=bool)
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            cand = d + self.weights[u]
            nbrs = self.neighbours[u]
            better = cand < dist[nbrs]
            for v, dv in zip(nbrs[better].tolist(), cand[better].tolist()):
                dist[v] = dv
                heapq.heappush(heap, (dv, v))
        return perf_counter() - t0

    def seconds(self) -> float:
        """The probe's run time, measured afresh if the last is PROBE_EVERY_S old."""
        if perf_counter() - self.at > PROBE_EVERY_S:
            self.last = self.run()
            self.at = perf_counter()
            self.history.append(self.last)
        return self.last


class Run:
    """Answers, errors and counters collected while a workload runs."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.answers = [dict() for _ in items]  # per graph: {answer json: count}
        self.errors: dict[tuple[int, str], int] = {}  # (graph, message) -> count
        self.counters: list[dict | None] = [None] * len(items)
        self.built: list[dict | None] = [None] * len(items)  # n, m, CSR hash
        self.attempted = 0

    def set_up(self, i):
        """Graph i ready to answer, as (graph, matrix or None); None on failure."""
        try:
            if self.workload.source == "dimacs":
                g = graph.load_dimacs(self.items[i])
            else:
                g = graph.generate(cli.parse_gen_spec(self.items[i]))
            if not graph.check_connected(g):
                raise ValueError("graph is disconnected")
            return g, oracle.build_matrix(g) if self.workload.mode == "p2" else None
        except Exception:
            self.error(i, traceback.format_exc(limit=3))
            return None

    def error(self, i: int, message: str) -> None:
        self.errors[i, message] = self.errors.get((i, message), 0) + 1

    def solve(self, i, ready):
        """Answer graph i once on a fresh provider; seconds, or None on failure."""
        self.attempted += 1
        if ready is None:
            self.error(i, "graph was not set up")
            return None
        g, matrix = ready  # on p2 the matrix answers on its own; g is None
        t0 = perf_counter()
        try:
            if matrix is None:
                provider = sssp.DistanceProvider.on_demand(g)
                rr = radius.find_radius(provider)
                dr = diameter.diameter_p1(g, rr, provider)
            else:
                provider = sssp.DistanceProvider.from_matrix(matrix)
                rr = radius.find_radius(provider)
                dr = diameter.diameter_p2(matrix, rr, provider=provider)
        except Exception:
            self.error(i, traceback.format_exc(limit=3))
            return None
        elapsed = perf_counter() - t0
        a, b = dr.peripheral_pair
        key = json.dumps([rr.radius, int(rr.center), dr.diameter, int(a), int(b)])
        self.answers[i][key] = self.answers[i].get(key, 0) + 1
        self.counters[i] = {
            "r_rows": rr.rows_accessed,
            "candidates": rr.candidates_examined,
            "pivots": len(rr.pivots),
            "sssp": dr.sssp_count,
            "rows": dr.rows_accessed,
            "pairs_checked": dr.pairs_checked,
            "vertices_scanned": dr.vertices_scanned,
        }
        return elapsed


class Series:
    """Samples per graph in one array, allocated and written once up front.
    Growing lists would add to the peak memory as a run goes on, and would
    shift where the allocator places the graphs and matrices, so that the
    peak would differ from run to run."""

    def __init__(self, graphs: int, capacity: int):
        self.values = np.full((graphs, capacity), np.nan)
        self.count = [0] * graphs

    def append(self, i: int, value: float) -> None:
        self.values[i, self.count[i]] = value
        self.count[i] += 1

    def per_graph(self) -> list[np.ndarray]:
        return [row[:c] for row, c in zip(self.values, self.count)]


class Samples:
    """Per-graph timing samples of one run: set-up seconds, solve seconds and
    solve times in probe runs (each answer's seconds over the mean probe time
    just before and after it)."""

    def __init__(self, graphs: int, solve_rounds: int):
        self.setup = Series(graphs, MAX_SETUP_ROUNDS)
        self.solve = Series(graphs, solve_rounds)
        self.solve_probes = Series(graphs, solve_rounds)


def set_up_round(run, ready, samples, tracer=None):
    """Set up every graph once more, replacing `ready` in place.

    On p2 only the matrix is kept once it is built: it is all R2 and D2 read,
    so the matrices make up most of the memory the workload holds.
    """
    for i in range(len(ready)):
        if tracer:
            tracer.answer = f"setup/g{i}"
        ready[i] = None  # drop the previous set-up of this graph first
        t0 = perf_counter()
        item = run.set_up(i)
        samples.setup.append(i, perf_counter() - t0)
        if item and run.built[i] is None:
            g = item[0]
            run.built[i] = {"n": g.n, "m": g.m,
                            "fingerprint": fingerprint(g.indptr, g.indices, g.weights)}
        if item and item[1] is not None:
            item = (None, item[1])
        ready[i] = item


def solve_round(run, ready, probe, samples, tracer=None, r=0):
    """Answer every graph once, each on a fresh provider; the round's seconds."""
    total = 0.0
    for i, item in enumerate(ready):
        if tracer:
            tracer.answer = f"solve/g{i}/r{r}"
        before = probe.seconds()
        elapsed = run.solve(i, item)
        if elapsed is not None:
            samples.solve.append(i, elapsed)
            samples.solve_probes.append(i, 2.0 * elapsed / (before + probe.seconds()))
            total += elapsed
    return total


def total_median(per_graph) -> float:
    return sum(float(np.median(t)) for t in per_graph if len(t))


def mean_median(per_graph) -> float:
    """Each graph's median sample, as a mean over the graphs answered."""
    medians = [float(np.median(t)) for t in per_graph if len(t)]
    return statistics.mean(medians) if medians else 0.0


def measure(run, probe, seconds):
    """End-to-end figures of the untraced run, and its last set-up.

    Set-up rounds and solve rounds interleave until `seconds` are up, with
    set-up taking SETUP_SHARE of the time, so both sample the whole run.
    """
    start = perf_counter()
    deadline = start + seconds
    ready = [None] * len(run.items)
    samples = Samples(len(ready), MAX_SOLVE_ROUNDS[run.workload.mode])
    setup_spent = 0.0
    setups = solves = 0
    while perf_counter() < deadline:
        now = perf_counter()
        if setup_spent <= SETUP_SHARE * (now - start) and setups < MAX_SETUP_ROUNDS:
            set_up_round(run, ready, samples)
            setup_spent += perf_counter() - now
            setups += 1
        elif solves < MAX_SOLVE_ROUNDS[run.workload.mode]:
            solve_round(run, ready, probe, samples)
            solves += 1
        else:
            break
    for _ in range(setups, MIN_SETUP_ROUNDS):
        set_up_round(run, ready, samples)
        setups += 1
    if not solves:
        solve_round(run, ready, probe, samples)
        solves += 1
    # Cost per SSSP row, each graph weighing the same; 0 where no SSSP runs.
    per_sssp = [
        float(np.median(t)) / run.counters[i]["sssp"]
        for i, t in enumerate(samples.solve_probes.per_graph())
        if len(t) and run.counters[i]["sssp"]
    ]
    return {
        "setup_s": total_median(samples.setup.per_graph()),
        "solve_s": total_median(samples.solve.per_graph()),
        "solve_probes": mean_median(samples.solve_probes.per_graph()),
        "solve_probes_per_sssp": statistics.mean(per_sssp) if per_sssp else 0.0,
        "setup_rounds": setups,
        "solve_rounds": solves,
        "probe_ms": 1000.0 * statistics.median(probe.history),
        "measured_s": perf_counter() - start,
    }, ready


def traced(run, probe, untraced, spans_path):
    """Set up once and solve a few rounds with spans on; per-layer figures."""
    p2 = run.workload.mode == "p2"
    tracer = Tracer()
    tracer.install()
    try:
        ready = [None] * len(run.items)
        samples = Samples(len(ready), TRACE_ROUNDS[run.workload.mode])
        set_up_round(run, ready, samples, tracer)
        setup_end = len(tracer.spans)
        marks, round_s = [], []
        for r in range(TRACE_ROUNDS[run.workload.mode]):
            round_s.append(solve_round(run, ready, probe, samples, tracer, r))
            marks.append(len(tracer.spans))
        scan_times = [[] for _ in ready]
        for i, item in enumerate(ready):
            for r in range(TRACE_SCAN_REPEATS if p2 and item else 0):
                tracer.answer = f"scan/g{i}/r{r}"
                t0 = perf_counter()
                oracle.scan_radius(item[1])
                oracle.scan_diameter(item[1])
                scan_times[i].append(perf_counter() - t0)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    setup = summarize(tracer.spans[:setup_end])["seconds"]
    # Counts repeat exactly from round to round. Every time figure comes
    # from the one round whose solve time is the median, so they add up.
    r = sorted(range(len(round_s)), key=round_s.__getitem__)[len(round_s) // 2]
    first = marks[r - 1] if r else setup_end
    one = summarize(tracer.spans[:marks[r]], first=first)
    solve_traced_s = round_s[r]
    kernel_s = one["seconds"].get("sssp", 0.0)
    wall_r = one["seconds"].get("find_radius", 0.0)
    wall_d = one["seconds"].get("diameter", 0.0)
    arcs = [2 * b["m"] if b else 0 for b in run.built]
    kernel_arcs = sum(
        arcs[int(span[4].split("/")[1][1:])]
        for span in tracer.spans[first:marks[r]]
        if span[0] == "sssp"
    )
    sssp_calls = one["calls"].get("sssp", 0)
    rows = one["calls"].get("row", 0)
    counters = [c for c in run.counters if c]
    program_sssp = sum(c["sssp"] for c in counters)
    program_rows = sum(c["rows"] for c in counters)
    scan_s = total_median(scan_times)
    return {
        "sssp.total_s": kernel_s,
        "radius.wall_s": wall_r,
        "radius.self_s": wall_r - one["kernel_s"]["find_radius"],
        "diameter.wall_s": wall_d,
        "diameter.self_s": wall_d - one["kernel_s"]["diameter"],
        "graph.load_s": setup.get("load_dimacs", 0.0),
        "graph.generate_s": setup.get("generate", 0.0),
        "graph.from_arcs_s": setup.get("from_arcs", 0.0),
        "graph.connectivity_s": setup.get("check_connected", 0.0),
        "graph.arcs": sum(arcs),
        "sssp.calls": sssp_calls,
        "sssp.ms_per_call": 1000.0 * kernel_s / sssp_calls if sssp_calls else 0.0,
        "sssp.arcs_per_s": kernel_arcs / kernel_s if kernel_s else 0.0,
        "sssp.share": kernel_s / solve_traced_s if solve_traced_s else 0.0,
        "provider.rows": rows,
        "provider.hit_ratio": 1.0 - one["row_misses"] / rows if rows else 0.0,
        "radius.sssp_calls": one["kernel_calls"]["find_radius"],
        "radius.far_pair_sssp_calls": one["kernel_calls"]["far_pair"],
        "radius.candidates": sum(c["candidates"] for c in counters),
        "radius.pivots": sum(c["pivots"] for c in counters),
        "diameter.sssp_calls": one["kernel_calls"]["diameter"],
        "diameter.pairs_checked": sum(c["pairs_checked"] for c in counters),
        "diameter.vertices_scanned": sum(c["vertices_scanned"] for c in counters),
        "diameter.rows": one["diameter_rows"],
        "diameter.rows_counted": sum(c["rows"] - c["r_rows"] for c in counters),
        "oracle.matrix_build_s": setup.get("build_matrix", 0.0),
        "oracle.matrix_mb": sum(item[1].n ** 2 * 8 for item in ready if item) / 2**20 if p2 else 0.0,
        "oracle.scan_s": scan_s,
        "oracle.scan_over_solve": scan_s / untraced["solve_s"] if scan_s and untraced["solve_s"] else 0.0,
        "solve_traced_s": solve_traced_s,
        "trace.overhead": mean_median(samples.solve_probes.per_graph()) / untraced["solve_probes"] - 1.0
        if untraced["solve_probes"] else 0.0,
        "trace.unaccounted_s": solve_traced_s - wall_r - wall_d,
        "check.program_sssp": program_sssp,
        "check.program_rows": program_rows,
        "check.counter_mismatches": int(program_sssp != sssp_calls) + int(program_rows != rows),
    }


def peak_rss_mib() -> float:
    """High-water resident memory of this process since it was exec'd.

    VmHWM belongs to the process's own address space; ru_maxrss can instead
    report the parent's peak, which the child inherits across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", required=True)
    parser.add_argument("items", nargs="+")
    args = parser.parse_args()

    run = Run(WORKLOADS[args.workload], args.items)
    probe = Probe(dense=run.workload.pattern.startswith("complete"))
    result, ready = measure(run, probe, args.seconds)
    result["peak_rss_mb"] = peak_rss_mib()
    result["graphs"] = run.built
    ready = None
    if args.trace:
        result["layers"] = traced(run, probe, result, args.spans)
    result["attempted"] = run.attempted
    result["answers"] = run.answers
    result["errors"] = [[i, message, count] for (i, message), count in run.errors.items()]
    result["counters"] = run.counters
    print(json.dumps(result))


if __name__ == "__main__":
    main()
