import sys
from contextlib import contextmanager
from heapq import heapify
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmetrics
import graphmetrics.diameter as diameter_module
import graphmetrics.sssp as sssp_module
from graphmetrics.cli import parse_gen_spec
from graphmetrics.diameter import diameter_p1, diameter_p2
from graphmetrics.graph import Graph, GraphSpec, generate
from graphmetrics.oracle import apsp_repeated_sssp, build_matrix, floyd_warshall
from graphmetrics.radius import find_radius
from graphmetrics.sssp import (
    SPARSE_DEGREE_CUT,
    DisconnectedGraphError,
    DistanceProvider,
    eccentricity,
    sssp,
    sssp_vectorized,
)

from conftest import build_graph


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


def _seeded_edges(rng, n, dense):
    """Complete on n vertices (dense), or a random spanning tree plus up to
    2n random edges, its tree anything from a path to a bushy tree."""
    if dense:
        return np.triu_indices(n, k=1)
    perm = rng.permutation(n)
    reach = int(rng.integers(1, n))  # 1: the tree is a path
    parents = [int(perm[rng.integers(max(0, i - reach), i)]) for i in range(1, n)]
    extra = int(rng.integers(0, 2 * n))
    u = np.concatenate([perm[1:], rng.integers(0, n, extra)])
    v = np.concatenate([parents, rng.integers(0, n, extra)]).astype(np.int64)
    return u, v


def _seeded_graph(seed, dense, weights, cut_off):
    """Random graph on either side of SPARSE_DEGREE_CUT with float, integer
    or partly zero weights and some edges listed twice with another weight.
    cut_off "vertex" takes every edge off one vertex; "component" joins two
    such graphs side by side, ids shuffled, so no vertex is without edges."""
    rng = np.random.default_rng(seed)
    low, high = (70, 80) if dense else (2, 120)  # dense: degree > 64 even with a vertex cut off
    n = int(rng.integers(low, high))
    u, v = _seeded_edges(rng, n, dense)
    if cut_off == "component":
        n2 = int(rng.integers(low, high))
        u2, v2 = _seeded_edges(rng, n2, dense)
        ids = rng.permutation(n + n2)
        u, v = ids[np.concatenate([u, u2 + n])], ids[np.concatenate([v, v2 + n])]
        n += n2
    k = u.size // 4
    u = np.concatenate([u, v[:k]])  # parallel arcs, listed in either direction
    v = np.concatenate([v, u[:k]])
    if weights == "float":
        w = rng.uniform(0.0, 100.0, u.size)
    elif weights == "int":
        w = rng.integers(0, 4, u.size).astype(np.float64)  # zeros and ties
    else:
        w = rng.uniform(0.0, 100.0, u.size) * (rng.random(u.size) < 0.5)
    if cut_off == "vertex":
        lone = int(rng.integers(0, n))
        keep = (u != lone) & (v != lone)
        u, v, w = u[keep], v[keep], w[keep]
    return build_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))


def _path(n, integer=False):
    rng = np.random.default_rng(0)
    weights = rng.integers(1, 101, n - 1) if integer else rng.uniform(0.0, 100.0, n - 1)
    return build_graph(n, [(i, i + 1, float(w)) for i, w in enumerate(weights)])


def _float_loop(g):
    """A Graph of g's arrays on which sssp keeps float64 labels, as it does on
    every graph whose sums are not exact."""
    twin = Graph(g.indptr, g.indices, g.weights)
    twin.__dict__["sums_exact"] = False  # set where the cached property keeps its value
    return twin


@contextmanager
def _checked_labels():
    """The labels each sssp exit hands to _checked, int64 or float64."""
    labels = []

    def spy(dist, *args):
        labels.append(dist.copy())
        return checked(dist, *args)

    checked = sssp_module._checked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sssp_module, "_checked", spy)
        yield labels


@contextmanager
def _heaps_started():
    """The heaps sssp's heap phase starts, as copies of their seed entries.
    Only that phase calls heapify; sssp_vectorized pushes onto its heap."""
    heaps = []

    def spy(heap):
        heaps.append(list(heap))
        heapify(heap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sssp_module, "heapify", spy)
        yield heaps


@contextmanager
def _rounds_run():
    """A list that grows by one per np.minimum.reduceat call in sssp: one
    per relaxation round over the whole graph after round 1."""
    calls = []

    def reduceat(*args, **kwargs):
        calls.append(None)
        return np.minimum.reduceat(*args, **kwargs)

    class Numpy:
        minimum = SimpleNamespace(reduceat=reduceat)

        def __getattr__(self, name):
            return getattr(np, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sssp_module, "np", Numpy())
        yield calls


@contextmanager
def _numpy_lookups(*modules):
    """The set of attribute names looked up on np in the given modules."""
    names = set()

    class Numpy:
        def __getattr__(self, name):
            names.add(name)
            return getattr(np, name)

    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "np", Numpy())
        yield names


def _gen(spec):
    return generate(parse_gen_spec(spec))


class TestListRelaxation:
    """sssp's relaxation rounds and heap against the vectorized reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dense=st.booleans(),
        weights=st.sampled_from(["float", "int", "zero"]),
        cut_off=st.sampled_from([None, "vertex", "component"]),
    )
    def test_bit_identical_to_vectorized(self, seed, dense, weights, cut_off):
        g = _seeded_graph(seed, dense, weights, cut_off)
        assert dense == (g.average_degree >= SPARSE_DEGREE_CUT)
        # dense rows run sssp_vectorized and never reach the heap; sparse
        # ones run rounds until they thin out, then the heap (straight to
        # the heap when a vertex has no edges)
        sources = range(0, g.n, 1 + g.n // 4) if dense else range(g.n)
        with _heaps_started() as heaps:
            for s in sources:
                assert _outcome(sssp, g, s) == _outcome(sssp_vectorized, g, s)
        if dense:
            assert heaps == []

    def test_path_hands_over_after_the_warm_up(self):
        for integer in (False, True):
            g = _path(300, integer)
            assert g.sums_exact == integer  # integer weights run on int64 labels
            for s in (0, 150, 299):
                with _heaps_started() as heaps, _rounds_run() as calls:
                    row = sssp(g, s)
                assert len(heaps) == 1
                # seeded with what the first round after the warm-up lowered
                assert {abs(v - s) for _, v in heaps[0]} == {sssp_module.WARMUP_ROUNDS + 1}
                assert row.tobytes() == sssp_vectorized(g, s).tobytes()
                with _heaps_started() as float_heaps, _rounds_run() as float_calls:
                    assert sssp(_float_loop(g), s).tobytes() == row.tobytes()
                # the same hand-over round and the same seeds as the float loop
                assert (len(calls), heaps) == (len(float_calls), float_heaps)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cut_off=st.sampled_from([None, "vertex", "component"]))
    def test_int64_labels_run_the_float_loop(self, seed, cut_off):
        # rounds, hand-over and heap seeds, not only the rows, are the float
        # loop's; unreached int64 labels rise but never count as lowered
        g = _seeded_graph(seed, False, "int", cut_off)
        assert g.sums_exact
        for s in range(g.n):
            with _heaps_started() as heaps, _rounds_run() as calls:
                outcome = _outcome(sssp, g, s)
            with _heaps_started() as float_heaps, _rounds_run() as float_calls:
                assert _outcome(sssp, _float_loop(g), s) == outcome
            assert (len(calls), heaps) == (len(float_calls), float_heaps)

    def test_complete_converges_in_rounds(self):
        g = generate(GraphSpec(kind="complete", n=50, seed=0))
        assert g.average_degree < SPARSE_DEGREE_CUT
        with _heaps_started() as heaps:
            for s in range(g.n):
                assert sssp(g, s).tobytes() == sssp_vectorized(g, s).tobytes()
        assert heaps == []

    @pytest.mark.parametrize("spec, rounds", [
        ("complete:50:seed=0:wlo=0:whi=100:int=0", 354),
        ("sparse:100:300:seed=0:wlo=1:whi=100:int=1", 699),
    ])
    def test_round_count(self, spec, rounds):
        # over every source; round 1 is the source's arcs, with no reduceat
        g = generate(parse_gen_spec(spec))
        with _rounds_run() as calls:
            for s in range(g.n):
                sssp(g, s)
        assert len(calls) == rounds

    def test_star_with_zero_and_tied_weights(self):
        # -0.0 is stored as +0.0, so round 1 copies no -0.0 into a row
        weights = [0.0, -0.0, 3.0, 3.0, 0.5, 3.0, 0.0, 0.5] * 5
        g = build_graph(41, [(0, leaf, w) for leaf, w in enumerate(weights, start=1)])
        assert g.average_degree < SPARSE_DEGREE_CUT
        with _heaps_started() as heaps:
            for s in (0, 1, 2, 3, 5):
                with _rounds_run() as calls:
                    assert sssp(g, s).tobytes() == sssp_vectorized(g, s).tobytes()
                if s == 0:
                    # the centre settles in round 1; the first round that
                    # counts, after the warm-up, confirms it
                    assert len(calls) == sssp_module.WARMUP_ROUNDS
        assert heaps == []

    @pytest.mark.parametrize("lone", [0, 2, 4])
    def test_vertex_without_edges(self, lone):
        # reduceat would read past the arcs for the last vertex, or take the
        # next vertex's arcs for any other; the heap names it instead
        others = [v for v in range(5) if v != lone]
        g = build_graph(5, [(a, b, 1.0) for a, b in zip(others, others[1:])])
        for s in range(5):
            unreachable = others[0] if s == lone else lone
            for search in (sssp, sssp_vectorized):
                with pytest.raises(DisconnectedGraphError) as exc:
                    search(g, s)
                assert (exc.value.source, exc.value.vertex) == (s, unreachable)

    def test_disconnected_names_the_same_vertex(self):
        g = build_graph(5, [(0, 3, 1.0), (1, 2, 1.0), (3, 4, 0.0)])
        for search in (sssp, sssp_vectorized):
            with _heaps_started() as heaps, pytest.raises(DisconnectedGraphError) as exc:
                search(g, 4)
            assert (exc.value.source, exc.value.vertex) == (4, 1)
            assert heaps == []  # sssp converges in rounds with vertices unreached

    @pytest.mark.parametrize("path", [2, 300])  # converges in the rounds; hands over
    def test_disconnected_names_the_smallest_unreachable_id(self, path):
        # vertices 0-2 are cut off from a path on the others; their int64
        # labels grow by walks of unequal weight, so the largest is vertex
        # 2's, also in float64 at the heap's exit (one ulp of 2**62 is 1024)
        cut_off = [(0, 1, 1.0), (1, 2, 5000.0)]
        g = build_graph(path + 3, cut_off + [(3 + i, 4 + i, 2.0) for i in range(path - 1)])
        assert g.sums_exact
        for s in (3, path + 2):
            with _checked_labels() as labels, _heaps_started() as heaps:
                with pytest.raises(DisconnectedGraphError) as exc:
                    sssp(g, s)
            assert (exc.value.source, exc.value.vertex) == (s, 0)
            assert _outcome(sssp_vectorized, g, s) == ("unreachable", s, 0)
            assert len(heaps) == (path > 2)
            (dist,) = labels
            assert dist[0] != dist[2] and int(dist.argmax()) == 2  # argmax alone names 2

    @pytest.mark.parametrize("n", [40, 300])  # converges in the rounds; hands over
    @pytest.mark.parametrize("side", ["below", "past"])
    @pytest.mark.parametrize("cut_off", [False, True])
    def test_integer_sums_at_the_exact_limit(self, n, side, cut_off):
        # A path of w_max arcs reaches (n - 1) * w_max, the largest label
        # sums_exact allows: just below 2**53 runs int64 labels, just past
        # it the float loop. int64 adds wrap without a warning, so only the
        # bytes can show an overflow; unreached labels rise from 2**62.
        total = n + 3 if cut_off else n
        w_max = (2**53 - 1) // (total - 1) + (side == "past")
        rng = np.random.default_rng(n)
        edges = [(i, i + 1, float(w_max)) for i in range(n - 1)]
        extra = rng.integers(0, n, (n // 4, 2))
        edges += [(int(a), int(b), float(rng.integers(w_max // 2, w_max + 1))) for a, b in extra]
        if cut_off:
            edges += [(n, n + 1, float(w_max)), (n + 1, n + 2, float(w_max - 7))]
        g = build_graph(total, edges)
        assert g.sums_exact == (side == "below")
        for s in (0, n // 2, n - 1, total - 1):
            with _numpy_lookups(sssp_module) as names, _heaps_started() as heaps:
                outcome = _outcome(sssp, g, s)
            assert outcome == _outcome(sssp_vectorized, g, s)
            assert ("int64" in names) == g.sums_exact
            assert bool(heaps) == (n == 300 and s < n)  # the cut-off part converges
            if cut_off:
                assert outcome == ("unreachable", s, n if s < n else 0)

    def test_source_out_of_range(self, path4):
        dense = generate(GraphSpec(kind="complete", n=70))
        assert dense.average_degree >= SPARSE_DEGREE_CUT  # sssp_vectorized's own check
        for g in (path4, dense):
            for source in (-1, g.n):
                with pytest.raises(ValueError, match=f"source {source} out of range"):
                    sssp(g, source)


class TestRowContract:
    """Every exit of sssp returns what the module docstring promises: a
    fresh C-contiguous float64 row of length n with row[source] == 0, sharing
    memory with neither the graph's arrays nor another row."""

    @staticmethod
    def _rows(g):
        rows = {s: sssp(g, s) for s in range(g.n)}
        for s, row in rows.items():
            assert type(row) is np.ndarray and row.dtype == np.float64
            assert row.shape == (g.n,) and row.flags.c_contiguous and row.flags.owndata
            assert row[s] == 0.0
            for array in (g.indptr, g.indices, g.weights):
                assert not np.shares_memory(row, array)
        for a, b in combinations(rows.values(), 2):
            assert not np.shares_memory(a, b)
        return rows

    def test_rows_that_converge_in_the_rounds(self):
        for integer in (0, 1):  # float64, int64 labels
            g = _gen(f"complete:50:seed=0:wlo=0:whi=100:int={integer}")
            assert g.sums_exact == integer
            with _heaps_started() as heaps:
                self._rows(g)
            assert heaps == []

    @pytest.mark.parametrize("g, handed_over", [
        (_path(300), 300),
        (_gen("sparse:100:300:seed=0:wlo=1:whi=100:int=1"), 63),  # the others converge
    ])
    def test_rows_handed_to_the_heap(self, g, handed_over):
        with _heaps_started() as heaps:
            self._rows(g)
        assert len(heaps) == handed_over

    def test_vectorized_rows(self):
        g = _gen("complete:70:seed=0:wlo=0:whi=100:int=0")
        assert g.average_degree >= SPARSE_DEGREE_CUT
        with _heaps_started() as heaps:
            self._rows(g)
        assert heaps == []

    def test_one_vertex(self):
        assert self._rows(build_graph(1, []))[0].tolist() == [0.0]


def test_hot_path_avoids_numpy_wrappers():
    # At these sizes a relaxation round is bound by numpy's cost per call,
    # and these Python-level wrappers cost 2-4x the ndarray methods, np.empty
    # and np.fromiter that sssp and the diameter scans use in their place.
    wrappers = {"count_nonzero", "flatnonzero", "full", "array", "argsort"}
    sparse = _gen("sparse:100:300:seed=0:wlo=1:whi=100:int=1")
    graphs = [_gen("complete:50:seed=0:wlo=0:whi=100:int=0"), sparse, _path(300)]
    matrix = build_matrix(_gen("complete:120:seed=0:wlo=0:whi=100:int=0"))
    assert all(g.average_degree < SPARSE_DEGREE_CUT for g in graphs)
    with _numpy_lookups(sssp_module, diameter_module) as names, _heaps_started() as heaps:
        for g in graphs:
            for s in range(g.n):
                sssp(g, s)
        provider = DistanceProvider.on_demand(sparse)
        diameter_p1(sparse, find_radius(provider), provider)
        provider = DistanceProvider.from_matrix(matrix)
        diameter_p2(matrix, find_radius(provider), provider)
    assert heaps and "minimum" in names  # both the rounds and the heap ran
    assert names.isdisjoint(wrappers), sorted(names & wrappers)


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

    def test_requires_exactly_one_backing(self, path4):
        with pytest.raises(ValueError):
            DistanceProvider(graph=None, matrix=None)

    @pytest.mark.parametrize("mode", ["on_demand", "matrix"])
    def test_source_out_of_range(self, path4, mode):
        for g in (path4, generate(GraphSpec(kind="complete", n=70))):  # sparse and dense kernels
            if mode == "on_demand":
                p = DistanceProvider.on_demand(g)
            else:
                p = DistanceProvider.from_matrix(apsp_repeated_sssp(g))
            for source in (-1, g.n):
                with pytest.raises(ValueError, match=f"source {source} out of range"):
                    p.row(source)
            assert dict(p.held_rows()) == {}
            assert (p.sssp_count, p.rows_accessed) == (0, 0)  # a read that raises is no read


def test_public_names():
    assert graphmetrics.sssp is sys.modules["graphmetrics.sssp"]  # the module, not the function
    assert graphmetrics.sssp.sssp is sssp
    for name in graphmetrics.__all__:
        assert hasattr(graphmetrics, name), name


def test_triangle_inequality_on_oracle_matrix():
    g = generate(GraphSpec(kind="sparse", n=80, seed=9, target_edges=200))
    M = apsp_repeated_sssp(g).values
    rng = np.random.default_rng(0)
    for _ in range(500):
        i, j, k = rng.integers(0, g.n, size=3)
        assert M[i, j] <= M[i, k] + M[k, j] + 1e-9
