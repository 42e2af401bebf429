import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmetrics import oracle
from graphmetrics.graph import GraphSpec, from_arcs, generate
from graphmetrics.oracle import (
    FW_BLOCK,
    apsp_repeated_sssp,
    build_matrix,
    choose_baseline,
    dijkstra_matrix,
    floyd_warshall,
    scan_diameter,
    scan_metrics,
    scan_radius,
)
from graphmetrics.sssp import DisconnectedGraphError

from conftest import build_graph


class TestApsp:
    def test_path_matrix(self, path3_weighted):
        M = apsp_repeated_sssp(path3_weighted)
        assert M.values.tolist() == [[0, 1, 3], [1, 0, 2], [3, 2, 0]]

    def test_symmetric(self):
        g = generate(GraphSpec(kind="sparse", n=60, seed=1, target_edges=150, integer_weights=True))
        M = apsp_repeated_sssp(g).values
        np.testing.assert_array_equal(M, M.T)
        assert np.diagonal(M).tolist() == [0.0] * 60


class TestBuildMatrix:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("integer_weights", [False, True])
    def test_sparse_build_runs_the_fast_kernel(self, monkeypatch, seed, integer_weights):
        g = generate(GraphSpec(kind="sparse", n=60, seed=seed, target_edges=150,
                               integer_weights=integer_weights))
        expected = apsp_repeated_sssp(g).values.tobytes()

        def refuse(g, source):
            raise AssertionError("sssp_vectorized ran on a sparse graph")

        for module in ("graphmetrics.sssp", "graphmetrics.oracle"):
            monkeypatch.setattr(importlib.import_module(module), "sssp_vectorized", refuse)
        assert build_matrix(g).values.tobytes() == expected

    def test_dense_dijkstra_build_equals_reference(self):
        g = generate(GraphSpec(kind="complete", n=70, seed=5))  # above the degree cut
        expected = apsp_repeated_sssp(g).values.tobytes()
        assert dijkstra_matrix(g).values.tobytes() == expected

    @pytest.mark.parametrize("builder", [
        apsp_repeated_sssp, dijkstra_matrix, floyd_warshall, build_matrix,
    ], ids=lambda f: f.__name__)
    def test_memory_guard(self, monkeypatch, builder):
        # disconnected, so a build that ran any SSSP first would raise DisconnectedGraphError
        g = build_graph(3, [(0, 1, 1.0)])
        monkeypatch.setattr(oracle, "MATRIX_CAP", 1)
        with pytest.raises(MemoryError) as exc:
            builder(g)
        assert str(exc.value) == "distance matrix refused: n=3 exceeds cap 1"


class TestFloydWarshall:
    def test_relaxation_through_middle(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert floyd_warshall(g).values[0, 2] == 2.0

    def test_unit_complete(self):
        g = generate(GraphSpec(kind="complete", n=5, seed=0, weight_range=(1.0, 1.0)))
        M = floyd_warshall(g).values
        off = M[~np.eye(5, dtype=bool)]
        assert set(off.tolist()) == {1.0}

    @pytest.mark.parametrize("edges, unreachable", [
        ([(0, 1, 1.0), (2, 3, 1.0)], 2),
        ([(0, 2, 1.0), (2, 4, 1.0), (1, 3, 1.0)], 1),
        ([(1, 2, 1.0), (2, 3, 1.0)], 1),
    ], ids=["two-pieces", "gap-below-reached", "isolated-source"])
    def test_disconnected_names_smallest_unreachable(self, edges, unreachable):
        with pytest.raises(DisconnectedGraphError) as exc:
            floyd_warshall(build_graph(max(max(e[:2]) for e in edges) + 1, edges))
        assert (exc.value.source, exc.value.vertex) == (0, unreachable)

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        g = generate(GraphSpec(kind="sparse", n=n, seed=seed, target_edges=3 * n))
        np.testing.assert_allclose(
            apsp_repeated_sssp(g).values, floyd_warshall(g).values, rtol=1e-9
        )


def textbook_floyd_warshall(g):
    """D[i, j] = min(D[i, j], D[i, k] + D[k, j]) for k = 0 .. n-1, one
    broadcast add per step, from the graph's own arcs."""
    n = g.n
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for u in range(n):
        for i in range(g.indptr[u], g.indptr[u + 1]):
            D[u, g.indices[i]] = g.weights[i]
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


WEIGHT_KINDS = {
    "zero": lambda rng, m: np.zeros(m),
    "subnormal": lambda rng, m: rng.integers(0, 4, m) * 5e-324,
    "integer": lambda rng, m: rng.integers(0, 4, m).astype(float),  # many tied paths
    "float": lambda rng, m: rng.uniform(0.0, 100.0, m),
}


class TestFloydWarshallEqualsTextbookLoop:
    """floyd_warshall forms its candidate sums as a BLAS product in blocks of
    FW_BLOCK rows; the matrix must be the textbook loop's, byte for byte, on
    sizes around the block edges."""

    @pytest.mark.parametrize("kind", sorted(WEIGHT_KINDS))
    @pytest.mark.parametrize("n", [1, 2, 3, 9, FW_BLOCK - 1, FW_BLOCK, FW_BLOCK + 1,
                                   2 * FW_BLOCK + 1])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.05, 0.6]),
           split=st.booleans())
    def test_bytes(self, n, kind, seed, density, split):
        rng = np.random.default_rng(seed)
        # a random spanning tree (each v > 0 joins some u < v), then random
        # extra arcs, self-loops and parallel arcs among them
        u = np.concatenate([np.arange(1, n), rng.integers(0, n, int(density * n * n))])
        v = np.concatenate([rng.integers(0, np.arange(1, n)), rng.integers(0, n, len(u) - n + 1)])
        if split and n > 1:  # drop every edge across a cut, so D holds inf
            side = rng.random(n) < 0.5
            side[rng.integers(1, n)] = not side[0]
            keep = side[u] == side[v]
            u, v = u[keep], v[keep]
        g = from_arcs(n, u, v, WEIGHT_KINDS[kind](rng, len(u)))
        expected = textbook_floyd_warshall(g)
        unreachable = np.flatnonzero(expected[0] == np.inf)
        if unreachable.size:
            with pytest.raises(DisconnectedGraphError) as exc:
                floyd_warshall(g)
            assert (exc.value.source, exc.value.vertex) == (0, unreachable[0])
            with mock.patch.object(oracle, "_checked", lambda dist, source: dist):
                got = floyd_warshall(g).values
        else:
            got = floyd_warshall(g).values
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == got.T.tobytes()  # symmetric bit for bit


class TestScans:
    def test_path_metrics(self, path4):
        om = scan_metrics(apsp_repeated_sssp(path4))
        assert om.radius == 2.0
        assert om.all_centers == [1, 2]
        assert om.diameter == 3.0
        assert om.all_peripheral_pairs == [(0, 3)]

    def test_unit_complete_all_central_and_peripheral(self):
        g = generate(GraphSpec(kind="complete", n=4, seed=0, weight_range=(1.0, 1.0)))
        om = scan_metrics(apsp_repeated_sssp(g))
        assert om.radius == om.diameter == 1.0
        assert om.all_centers == [0, 1, 2, 3]
        assert len(om.all_peripheral_pairs) == 6

    def test_scan_pieces_agree_with_metrics(self):
        g = generate(GraphSpec(kind="sparse", n=70, seed=12, target_edges=180))
        M = apsp_repeated_sssp(g)
        om = scan_metrics(M)
        radius, center = scan_radius(M)
        diameter, pair = scan_diameter(M)
        assert radius == om.radius and center in om.all_centers
        assert diameter == om.diameter and pair in om.all_peripheral_pairs

    def test_radius_diameter_sandwich(self):
        for seed in range(5):
            g = generate(GraphSpec(kind="sparse", n=50, seed=seed, target_edges=120))
            om = scan_metrics(apsp_repeated_sssp(g))
            assert om.radius <= om.diameter <= 2.0 * om.radius

    def test_single_vertex(self):
        om = scan_metrics(apsp_repeated_sssp(build_graph(1, [])))
        assert om.radius == om.diameter == 0.0
        assert om.all_peripheral_pairs == []


def test_baseline_choice():
    dense = generate(GraphSpec(kind="complete", n=20, seed=0))
    sparse = generate(GraphSpec(kind="sparse", n=100, seed=0, target_edges=150))
    assert choose_baseline(dense) == "floyd"
    assert choose_baseline(sparse) == "dijkstra"
