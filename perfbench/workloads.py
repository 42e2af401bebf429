"""The benchmark's workload table, shared by the runner and the worker.

Graph i of a workload run with seed S is built from the workload's spec
pattern with seed S + i. Every spec spells out `wlo`, `whi` and `int`, so a
change to the program's generator defaults cannot silently change the graphs.
Why each workload was chosen is recorded in BENCHMARK.json and DESIGN.md.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: str  # generator spec with a {seed} placeholder
    graphs: int
    mode: str  # "p1": on-demand R1 + D1; "p2": matrix-backed R2 + D2
    source: str  # "dimacs": the program parses a .gr file; "gen": it generates

    def specs(self, seed: int) -> list[str]:
        return [self.pattern.format(seed=seed + i) for i in range(self.graphs)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="sparse-dimacs-p1",
            pattern="sparse:100:300:seed={seed}:wlo=1:whi=100:int=1",
            graphs=512,
            mode="p1",
            source="dimacs",
        ),
        Workload(
            name="complete-gen-p1",
            pattern="complete:50:seed={seed}:wlo=0:whi=100:int=0",
            graphs=512,
            mode="p1",
            source="gen",
        ),
        Workload(
            name="complete-matrix-p2",
            pattern="complete:120:seed={seed}:wlo=0:whi=100:int=0",
            graphs=384,
            mode="p2",
            source="gen",
        ),
    ]
}
