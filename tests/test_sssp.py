import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmetrics.graph import GraphSpec, generate
from graphmetrics.oracle import apsp_repeated_sssp, floyd_warshall
from graphmetrics.sssp import (
    SPARSE_DEGREE_CUT,
    CsrLists,
    DisconnectedGraphError,
    DistanceProvider,
    csr_lists,
    eccentricity,
    sssp,
    sssp_vectorized,
)

from conftest import build_graph

# the package's `sssp` attribute is the function, not this module
sssp_module = importlib.import_module("graphmetrics.sssp")


class TestSssp:
    def test_path_distances(self, path3_weighted):
        assert sssp(path3_weighted, 0).tolist() == [0.0, 1.0, 3.0]

    def test_star_from_leaf(self, star4):
        assert sssp(star4, 1).tolist() == [1.0, 0.0, 2.0, 2.0]

    def test_matches_floyd_warshall_row(self):
        g = generate(GraphSpec(kind="sparse", n=50, seed=11, target_edges=120))
        fw = floyd_warshall(g)
        row = sssp(g, 17)
        np.testing.assert_allclose(row, fw.values[17], rtol=1e-9)

    def test_disconnected_raises(self):
        g = build_graph(3, [(0, 1, 1.0)])
        with pytest.raises(DisconnectedGraphError) as exc:
            sssp(g, 0)
        assert exc.value.vertex == 2

    def test_single_vertex(self):
        assert sssp(build_graph(1, []), 0).tolist() == [0.0]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_undirected_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        g = generate(GraphSpec(kind="sparse", n=n, seed=seed, target_edges=3 * n))
        s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
        assert sssp(g, s)[t] == pytest.approx(sssp(g, t)[s], rel=1e-12)


def _outcome(search, g, source):
    """A row's bytes, or the vertex a DisconnectedGraphError names."""
    try:
        return search(g, source).tobytes()
    except DisconnectedGraphError as exc:
        return ("unreachable", exc.source, exc.vertex)


def _seeded_graph(seed, dense, weights, cut_off):
    """Random graph on either side of SPARSE_DEGREE_CUT with float, integer
    or partly zero weights, some edges listed twice with another weight, and
    (cut_off) one vertex without edges."""
    rng = np.random.default_rng(seed)
    if dense:
        n = int(rng.integers(70, 80))  # degree > 64 even with a vertex cut off
        u, v = np.triu_indices(n, k=1)
    else:
        n = int(rng.integers(2, 60))
        perm = rng.permutation(n)
        parents = [int(perm[rng.integers(0, i)]) for i in range(1, n)]
        extra = int(rng.integers(0, 2 * n))
        u = np.concatenate([perm[1:], rng.integers(0, n, extra)])
        v = np.concatenate([parents, rng.integers(0, n, extra)]).astype(np.int64)
    k = u.size // 4
    u = np.concatenate([u, v[:k]])  # parallel arcs, listed in either direction
    v = np.concatenate([v, u[:k]])
    if weights == "float":
        w = rng.uniform(0.0, 100.0, u.size)
    elif weights == "int":
        w = rng.integers(0, 4, u.size).astype(np.float64)  # zeros and ties
    else:
        w = rng.uniform(0.0, 100.0, u.size) * (rng.random(u.size) < 0.5)
    if cut_off and n > 1:
        lone = int(rng.integers(0, n))
        keep = (u != lone) & (v != lone)
        u, v, w = u[keep], v[keep], w[keep]
    return build_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))


class TestListRelaxation:
    """sssp's arc-by-arc relaxation against the vectorized reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dense=st.booleans(),
        weights=st.sampled_from(["float", "int", "zero"]),
        cut_off=st.booleans(),
    )
    def test_bit_identical_to_vectorized(self, seed, dense, weights, cut_off):
        g = _seeded_graph(seed, dense, weights, cut_off)
        assert (csr_lists(g) is None) == dense == (g.average_degree >= SPARSE_DEGREE_CUT)
        # forced onto the list path whichever side of the cut g is on
        lists = CsrLists(g.indptr.tolist(), g.indices.tolist(), g.weights.tolist())
        sources = range(0, g.n, 1 + g.n // 4) if dense else range(g.n)
        for s in sources:
            expected = _outcome(sssp_vectorized, g, s)
            assert _outcome(lambda g, s: sssp(g, s, lists), g, s) == expected
            assert _outcome(sssp, g, s) == expected

    def test_disconnected_names_the_same_vertex(self):
        g = build_graph(5, [(0, 3, 1.0), (1, 2, 1.0), (3, 4, 0.0)])
        for search in (sssp, sssp_vectorized):
            with pytest.raises(DisconnectedGraphError) as exc:
                search(g, 4)
            assert (exc.value.source, exc.value.vertex) == (4, 1)

    def test_source_out_of_range(self, path4):
        for source in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                sssp(path4, source)


class TestEccentricity:
    def test_simple(self):
        row = sssp(build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)]), 0)
        assert eccentricity(row) == (3.0, 2)

    def test_smallest_id_tie_break(self):
        g = build_graph(3, [(0, 1, 2.0), (1, 2, 2.0)])
        value, argmax = eccentricity(sssp(g, 1))
        assert (value, argmax) == (2.0, 0)

    def test_center_row_gives_radius(self):
        g = generate(GraphSpec(kind="sparse", n=60, seed=4, target_edges=140))
        M = apsp_repeated_sssp(g)
        radius = M.values.max(axis=1).min()
        center = int(M.values.max(axis=1).argmin())
        assert eccentricity(sssp(g, center))[0] == radius


class TestDistanceProvider:
    def test_on_demand_cache_contract(self, path4):
        p = DistanceProvider.on_demand(path4)
        p.row(2)
        p.row(2)
        assert p.sssp_count == 1
        assert p.rows_accessed == 2

    def test_matrix_backed_never_solves(self, path4):
        M = apsp_repeated_sssp(path4)
        p = DistanceProvider.from_matrix(M)
        p.row(0)
        p.row(3)
        assert p.sssp_count == 0
        assert p.rows_accessed == 2

    def test_modes_agree(self, path4):
        M = apsp_repeated_sssp(path4)
        on_demand = DistanceProvider.on_demand(path4)
        backed = DistanceProvider.from_matrix(M)
        assert np.array_equal(on_demand.row(2), backed.row(2))

    def test_rows_identical_to_fresh_sssp(self, star4):
        p = DistanceProvider.on_demand(star4)
        assert np.array_equal(p.row(1), sssp(star4, 1))

    def test_on_demand_builds_the_list_view_once(self, monkeypatch):
        g = generate(GraphSpec(kind="sparse", n=40, seed=3, target_edges=100))
        built = []

        def counting_csr_lists(graph):
            built.append(graph)
            return csr_lists(graph)

        monkeypatch.setattr(sssp_module, "csr_lists", counting_csr_lists)
        p = DistanceProvider.on_demand(g)
        for s in range(g.n):
            assert p.row(s).tobytes() == sssp_vectorized(g, s).tobytes()
        assert p.sssp_count == g.n
        assert len(built) == 1 and built[0] is g

    def test_requires_exactly_one_backing(self, path4):
        with pytest.raises(ValueError):
            DistanceProvider(graph=None, matrix=None)


def test_triangle_inequality_on_oracle_matrix():
    g = generate(GraphSpec(kind="sparse", n=80, seed=9, target_edges=200))
    M = apsp_repeated_sssp(g).values
    rng = np.random.default_rng(0)
    for _ in range(500):
        i, j, k = rng.integers(0, g.n, size=3)
        assert M[i, j] <= M[i, k] + M[k, j] + 1e-9
