"""The benchmark in perfbench/ drives the package by name: its worker calls
load_dimacs, generate, check_connected, build_matrix and the searches, and
its tracer wraps them. A rename there breaks only traced benchmark runs, so
this runs the worker once per workload, traced, on one tiny graph each."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphmetrics.cli import parse_gen_spec
from graphmetrics.graph import generate, write_dimacs

ROOT = Path(__file__).resolve().parents[1]

# One tiny item per workload, of the workload's kind and weights.
ITEMS = {
    "sparse-dimacs-p1": "sparse:12:30:seed=0:wlo=1:whi=100:int=1",
    "complete-gen-p1": "complete:6:seed=0:wlo=0:whi=100:int=0",
    "complete-matrix-p2": "complete:8:seed=0:wlo=0:whi=100:int=0",
}


def test_every_workload_is_covered():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(ITEMS)


@pytest.mark.parametrize("workload", sorted(ITEMS))
def test_traced_worker_run(tmp_path, workload):
    item = ITEMS[workload]
    if workload.startswith("sparse-dimacs"):
        path = tmp_path / "g.gr"
        write_dimacs(generate(parse_gen_spec(item)), path)
        item = str(path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seconds", "0.2", "--trace", "1", "--spans", str(tmp_path / "spans.jsonl"), item],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    assert result["layers"]["check.counter_mismatches"] == 0
