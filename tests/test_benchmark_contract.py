"""The benchmark in perfbench/ drives the package by name: its worker calls
load_dimacs, generate, check_connected, build_matrix and the searches, and
its tracer wraps them. A rename there breaks only traced benchmark runs, so
this runs the worker once per workload, traced, on one tiny graph each. It
also checks generated graphs against the benchmark's reference generator."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphmetrics.cli import parse_gen_spec
from graphmetrics.graph import generate, write_dimacs

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # its modules import each other by bare name
import reference  # noqa: E402

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
    if workload.endswith("-p1"):
        # the tracer counts far_pair's SSSPs by wrapping radius.far_pair, so
        # a search that stopped calling it by that name would read 0 here
        assert result["layers"]["radius.far_pair_sssp_calls"] > 0


# The runner checks each graph the worker builds against reference.build_csr
# by fingerprint, so a generator or CSR-build change that moves one byte fails
# every answer of a benchmark run. Each workload's pattern at a few of its
# seeds, and smaller graphs of the same kinds with integer and float weights.
FINGERPRINT_SPECS = [
    *(f"sparse:100:300:seed={s}:wlo=1:whi=100:int=1" for s in (0, 1, 511)),
    *(f"complete:50:seed={s}:wlo=0:whi=100:int=0" for s in (0, 1, 511)),
    *(f"complete:120:seed={s}:wlo=0:whi=100:int=0" for s in (0, 1, 383)),
    "sparse:12:30:seed=0:wlo=1:whi=100:int=1",
    "sparse:12:30:seed=3:wlo=0:whi=100:int=0",
    "sparse:40:39:seed=2:wlo=0:whi=5:int=1",
    "sparse:6:40:seed=1:wlo=0:whi=1:int=0",
    "complete:1:seed=0:wlo=0:whi=100:int=0",
    "complete:2:seed=4:wlo=0:whi=3:int=1",
    "complete:7:seed=5:wlo=0:whi=2:int=1",
    "complete:9:seed=6:wlo=0:whi=100:int=0",
    "complete:1000:seed=0:wlo=0:whi=100:int=0",
]


@pytest.mark.parametrize("spec", FINGERPRINT_SPECS)
def test_generated_csr_matches_the_reference(spec):
    g = generate(parse_gen_spec(spec))
    expected = reference.fingerprint(*reference.build_csr(reference.parse_spec(spec)))
    assert reference.fingerprint(g.indptr, g.indices, g.weights) == expected
