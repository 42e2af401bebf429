"""Span recording around the package's public functions, from outside it.

install() replaces module attributes with timing wrappers. The package's own
callers look those names up as module globals at call time, so nested calls
are caught too: from_arcs inside load_dimacs, sssp inside
DistanceProvider.row, far_pair inside find_radius. uninstall() puts the
originals back. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module, attribute path, span name)
TARGETS = [
    ("graphmetrics.graph", "load_dimacs", "load_dimacs"),
    ("graphmetrics.graph", "generate", "generate"),
    ("graphmetrics.graph", "from_arcs", "from_arcs"),
    ("graphmetrics.graph", "check_connected", "check_connected"),
    ("graphmetrics.sssp", "sssp", "sssp"),
    ("graphmetrics.sssp", "DistanceProvider.row", "row"),
    ("graphmetrics.radius", "far_pair", "far_pair"),
    ("graphmetrics.radius", "find_radius", "find_radius"),
    ("graphmetrics.diameter", "diameter_p1", "diameter"),
    ("graphmetrics.diameter", "diameter_p2", "diameter"),
    ("graphmetrics.oracle", "build_matrix", "build_matrix"),
    ("graphmetrics.oracle", "scan_radius", "scan_radius"),
    ("graphmetrics.oracle", "scan_diameter", "scan_diameter"),
]


class Tracer:
    """Records spans as [name, start, end, parent index, answer id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.answer = ""  # set by the caller before each answer's work
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.answer]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return timed

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, answer in self.spans:
                fh.write(json.dumps([name, start, end, parent, answer]) + "\n")


def summarize(spans: list[list], first: int = 0) -> dict:
    """Per-layer totals over spans[first:].

    Returns inclusive seconds and call counts per span name, SSSP calls and
    seconds attributed to their enclosing search (radius, far_pair,
    diameter), row() calls made inside the diameter search, and the row()
    calls that ran an SSSP of their own.
    """
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    kernel_s = {"find_radius": 0.0, "diameter": 0.0}
    kernel_calls = {"find_radius": 0, "far_pair": 0, "diameter": 0}
    diameter_rows = 0
    row_misses = 0
    for span in spans[first:]:
        name, start, end, parent = span[0], span[1], span[2], span[3]
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name not in ("sssp", "row"):
            continue
        if name == "sssp" and parent >= 0 and spans[parent][0] == "row":
            row_misses += 1
        ancestor = parent
        while ancestor >= 0:
            outer = spans[ancestor][0]
            if name == "sssp":
                if outer in kernel_s:
                    kernel_s[outer] += end - start
                if outer in kernel_calls:
                    kernel_calls[outer] += 1
            elif outer == "diameter":
                diameter_rows += 1
            ancestor = spans[ancestor][3]
    return {
        "seconds": seconds,
        "calls": calls,
        "kernel_s": kernel_s,
        "kernel_calls": kernel_calls,
        "diameter_rows": diameter_rows,
        "row_misses": row_misses,
    }
