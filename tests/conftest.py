import math
import sys

import numpy as np
import pytest

from graphmetrics.graph import from_arcs


def build_graph(n, edges):
    """Graph from a list of (u, v, w) undirected edges."""
    if edges:
        u, v, w = zip(*edges)
    else:
        u = v = w = []
    return from_arcs(
        n,
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )


def weight_limit(n):
    """The largest float w with 4 * n * w finite: the largest edge weight a
    graph of n vertices may hold."""
    w = sys.float_info.max / (4 * n)
    while math.isfinite(4 * n * math.nextafter(w, math.inf)):
        w = math.nextafter(w, math.inf)
    while not math.isfinite(4 * n * w):
        w = math.nextafter(w, 0.0)
    return w


@pytest.fixture
def path4():
    """Path 0-1-2-3 with unit weights: radius 2 (centers 1,2), diameter 3."""
    return build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


@pytest.fixture
def star4():
    """Hub 0 with unit leaves 1,2,3: radius 1 (center 0), diameter 2."""
    return build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])


@pytest.fixture
def path3_weighted():
    """Path 0-1-2 with weights 1 and 2."""
    return build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
