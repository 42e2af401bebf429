from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmetrics.graph import GraphSpec, generate
from graphmetrics.oracle import apsp_repeated_sssp, dijkstra_matrix, scan_metrics
from graphmetrics.diameter import diameter_p2, find_diameter
from graphmetrics.radius import RadiusResult, far_pair, find_radius
from graphmetrics.sssp import DisconnectedGraphError, DistanceMatrix, DistanceProvider, sssp

from conftest import build_graph


def seeded_cases(count, lo=5, hi=120, master_seed=77):
    rng = np.random.default_rng(master_seed)
    for i in range(count):
        n = int(rng.integers(lo, hi))
        kind = "sparse" if i % 2 else "complete"
        yield generate(
            GraphSpec(
                kind=kind,
                n=n,
                seed=i,
                integer_weights=True,
                target_edges=3 * n if kind == "sparse" else None,
            )
        )


@st.composite
def walk_graphs(draw, weights):
    """Connected graphs of 1 to 64 vertices, a random spanning tree plus
    random edges, with weights drawn from weights."""
    n = draw(st.integers(1, 64))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    ids = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(ids, ids), max_size=2 * n))
    ws = draw(st.lists(weights, min_size=len(edges), max_size=len(edges)))
    return build_graph(n, [(u, v, float(w)) for (u, v), w in zip(edges, ws)])


def assert_walk_reads_each_row_once(g):
    """The walk stops at its first revisit, so it reads no row twice and
    ends on a pair whose rows it has read. It hands back every row it read,
    folded into one fresh bound, and the walked vertices in reading order.
    Over a matrix it reads the same rows and writes none."""
    M = dijkstra_matrix(g)
    before = M.values.tobytes()
    for provider in (DistanceProvider.on_demand(g), DistanceProvider.from_matrix(M)):
        (p1, p2), bound, walked = far_pair(provider)
        held = provider.held_rows()
        assert provider.rows_accessed == len(held)
        assert walked == list(held)
        assert bound.tobytes() == np.maximum.reduce(list(held.values())).tobytes()
        assert not np.shares_memory(bound, M.values)
        if (p1, p2) == (0, 1) and not held[0].any():  # every distance is 0
            assert walked == [0]
            continue
        assert p1 in held and p2 in held
    assert M.values.tobytes() == before


def assert_walk_starts_at_walk_start(g):
    """The walk starts at the provider's walk_start: on demand g.walk_start,
    over a matrix 0. Where every vertex has an arc, the start's lightest arc
    is the largest of any vertex's (the first such vertex), and no other
    vertex is closer to it."""
    on_demand = DistanceProvider.on_demand(g)
    over_matrix = DistanceProvider.from_matrix(dijkstra_matrix(g))
    assert (on_demand.walk_start, over_matrix.walk_start) == (g.walk_start, 0)
    assert far_pair(on_demand)[2][0] == g.walk_start
    assert far_pair(over_matrix)[2][0] == 0
    if not g.every_vertex_has_arc:
        assert g.walk_start == 0
        return
    lightest = [float(g.neighbors(v)[1].min()) for v in range(g.n)]
    assert g.walk_start == lightest.index(max(lightest))
    row = on_demand.row(g.walk_start)  # held since the walk
    assert (np.delete(row, g.walk_start) >= lightest[g.walk_start]).all()


class TestFarPair:
    # Integer weights 0-3: ties, zero weights and exact path sums, so every
    # row is symmetric bit for bit and the walk ends two steps back.
    @settings(max_examples=300, deadline=None)
    @given(walk_graphs(st.integers(0, 3)))
    def test_exact_walk_reads_each_row_once(self, g):
        assert_walk_reads_each_row_once(g)

    # Float path sums can differ by an ulp between the two directions.
    @settings(max_examples=300, deadline=None)
    @given(walk_graphs(st.floats(0.0, 100.0)))
    def test_float_walk_reads_each_row_once(self, g):
        assert_walk_reads_each_row_once(g)

    # Small integer weights tie often; floats rarely do.
    @settings(max_examples=300, deadline=None)
    @given(walk_graphs(st.integers(0, 3)) | walk_graphs(st.floats(0.0, 100.0)))
    def test_walk_starts_at_walk_start(self, g):
        assert_walk_starts_at_walk_start(g)

    def test_long_climb_reads_every_row(self):
        # Row i's farthest vertex is i + 1, so the walk climbs all 70 rows
        # and turns back at the last.
        n = 70
        values = np.full((n, n), 0.5)
        np.fill_diagonal(values, 0.0)
        i = np.arange(n - 1)
        values[i, i + 1] = values[i + 1, i] = i + 1
        provider = DistanceProvider.from_matrix(DistanceMatrix(values))
        pair, bound, walked = far_pair(provider)
        assert pair == (69, 68)
        assert walked == list(range(n))
        assert bound.tolist() == values.max(axis=0).tolist()
        assert provider.rows_accessed == n
        assert 69 in provider.held_rows() and 68 in provider.held_rows()

    def test_path_walk(self, path4):
        # walk 0 -> 3 -> 0 revisits, so the pair is (3, 0)
        assert far_pair(DistanceProvider.on_demand(path4))[0] == (3, 0)

    def test_star_walk(self, star4):
        # 0 -> 1 -> 2 -> 1 revisits leaf 1
        assert far_pair(DistanceProvider.on_demand(star4))[0] == (2, 1)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert far_pair(DistanceProvider.on_demand(g))[0] == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_weights_give_two_vertices(self, n):
        g = build_graph(n, [(i, i + 1, 0.0) for i in range(n - 1)])
        assert far_pair(DistanceProvider.on_demand(g))[0] == (0, 1)

    def test_pair_beats_random_pairs(self):
        g = generate(GraphSpec(kind="sparse", n=100, seed=5, target_edges=250))
        M = apsp_repeated_sssp(g).values
        (p1, p2), _, _ = far_pair(DistanceProvider.on_demand(g))
        rng = np.random.default_rng(1)
        sample = M[rng.integers(0, 100, 50), rng.integers(0, 100, 50)]
        assert M[p1, p2] >= sample.max()


class RowsOnly:
    """A provider with only the row contract: rows memoized from sssp, the
    walk start and the counters. It has no backing (graph and matrix are
    None), so a search that looked past the contract would go wrong here."""

    graph = matrix = None

    def __init__(self, g):
        self._g = g
        self.n = g.n
        self.walk_start = g.walk_start
        self._rows = {}
        self.sssp_count = self.rows_accessed = 0

    def row(self, source):
        if source not in self._rows:
            self._rows[source] = sssp(self._g, source)
            self.sssp_count += 1
        self.rows_accessed += 1
        return self._rows[source]

    def held_rows(self):
        return MappingProxyType(self._rows)


# find_diameter runs D1 on a provider whose matrix is None.
@settings(max_examples=300, deadline=None)
@given(walk_graphs(st.integers(0, 3)) | walk_graphs(st.floats(0.0, 100.0)))
def test_searches_read_only_the_row_contract(g):
    rows_only, on_demand = RowsOnly(g), DistanceProvider.on_demand(g)
    rr = find_radius(rows_only)
    assert rr == find_radius(on_demand)
    assert find_diameter(rr, rows_only) == find_diameter(rr, on_demand)
    # each row read is a pivot's first or a candidate's
    assert rr.rows_accessed == len(rr.pivots) + rr.candidates_examined


class TestFindRadius:
    def test_path(self, path4):
        rr = find_radius(DistanceProvider.on_demand(path4))
        assert rr.radius == 2.0
        assert rr.center == 1
        assert rr.candidates_examined == 1

    def test_star(self, star4):
        rr = find_radius(DistanceProvider.on_demand(star4))
        assert (rr.radius, rr.center) == (1.0, 0)

    def test_single_vertex(self):
        rr = find_radius(DistanceProvider.on_demand(build_graph(1, [])))
        assert (rr.radius, rr.center) == (0.0, 0)

    def test_two_vertices(self):
        rr = find_radius(DistanceProvider.on_demand(build_graph(2, [(0, 1, 7.0)])))
        assert rr.radius == 7.0

    @pytest.mark.parametrize("g", list(seeded_cases(30)), ids=lambda g: f"n{g.n}m{g.m}")
    def test_exact_on_seeded_graphs(self, g):
        M = apsp_repeated_sssp(g)
        oracle = scan_metrics(M)
        rr = find_radius(DistanceProvider.on_demand(g))
        assert rr.radius == oracle.radius
        assert M.values[rr.center].max() == oracle.radius

        rr2 = find_radius(DistanceProvider.from_matrix(M))
        assert rr2.radius == oracle.radius
        assert M.values[rr2.center].max() == oracle.radius

    @pytest.mark.parametrize("g", list(seeded_cases(12, master_seed=123)), ids=lambda g: f"n{g.n}m{g.m}")
    def test_bound_trace_invariants(self, g):
        M = apsp_repeated_sssp(g)
        oracle = scan_metrics(M)
        rr = find_radius(DistanceProvider.from_matrix(M))
        lowers = [lo for lo, _ in rr.bound_trace]
        uppers = [up for _, up in rr.bound_trace]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        for lo, up in rr.bound_trace:
            assert lo <= oracle.radius <= up

    @pytest.mark.parametrize("n, edges, start, unreachable", [
        (4, [(0, 1, 1.0), (2, 3, 5.0)], 2, 2),
        (4, [(0, 2, 1.0), (1, 3, 5.0)], 1, 1),
        (5, [(0, 1, 1.0), (2, 3, 5.0), (3, 4, 5.0)], 2, 2),
    ])
    def test_disconnected_names_what_vertex_0_cannot_reach(self, n, edges, start, unreachable):
        # The walk starts elsewhere, but the error is the one every search
        # gives: the smallest vertex unreachable from vertex 0.
        g = build_graph(n, edges)
        assert g.walk_start == start
        with pytest.raises(DisconnectedGraphError) as exc:
            find_radius(DistanceProvider.on_demand(g))
        assert (exc.value.source, exc.value.vertex) == (0, unreachable)

    def test_candidate_budget(self):
        g = generate(GraphSpec(kind="sparse", n=150, seed=6, target_edges=400))
        rr = find_radius(DistanceProvider.on_demand(g))
        assert rr.candidates_examined <= g.n

    def test_float_weights_do_not_stall_the_bounds(self):
        # Pivot rows summed from the other end sit one ulp below the true
        # eccentricity here; the lower bound must still reach the upper.
        g = generate(GraphSpec(kind="complete", n=8, seed=69))
        rr = find_radius(DistanceProvider.on_demand(g))
        oracle = scan_metrics(apsp_repeated_sssp(g))
        assert rr.candidates_examined < g.n
        lo, hi = rr.bound_trace[-1]
        assert lo >= hi
        assert rr.radius == oracle.radius
        assert rr.center == oracle.all_centers[0]

    def test_counts_come_from_provider(self, path4):
        p = DistanceProvider.on_demand(path4)
        rr = find_radius(p)
        assert rr.sssp_count == p.sssp_count
        assert rr.rows_accessed == p.rows_accessed
        assert rr.sssp_count <= path4.n


# Full results of find_radius: (radius, center, far_pair, pivots,
# candidates_examined, SSSPs on demand, rows_accessed, bound_trace). Over a
# matrix no SSSP runs. Every row the walk reads is a pivot, and no row is
# read twice for it. Over a matrix the walk starts at vertex 0, on demand at
# g.walk_start: where that is 0 both modes read the same rows, and elsewhere
# P1_PINNED holds the on-demand results.
PINNED = {
    "n1": (build_graph(1, []), (0.0, 0, (0, 0), [0], 1, 1, 2, [(0.0, 0.0)])),
    "n2": (build_graph(2, [(0, 1, 7.0)]), (7.0, 0, (1, 0), [0, 1], 1, 2, 3, [(7.0, 7.0)])),
    "zero": (generate(GraphSpec(kind="complete", n=6, weight_range=(0.0, 0.0), integer_weights=True)),
             (0.0, 0, (0, 1), [0], 1, 1, 2, [(0.0, 0.0)])),
    "complete12": (generate(GraphSpec(kind="complete", n=12, seed=3)),
                   (42.857290429846195, 11, (8, 4), [0, 4, 8, 6], 2, 6, 6,
                    [(30.375694222095316, 50.65316551844123),
                     (42.857290429846195, 42.857290429846195)])),
    "complete8": (generate(GraphSpec(kind="complete", n=8, seed=69)),
                  (52.549648746070396, 5, (6, 0), [0, 6, 4], 2, 5, 5,
                   [(47.658484007382285, 52.549648746070396),
                    (52.549648746070396, 52.549648746070396)])),
    # The first candidate is walk vertex 0, whose farthest vertex is walk
    # vertex 1. Its float bound sits an ulp below its eccentricity, so the
    # search goes on; row 1 is folded in already and is not read again.
    "complete5": (generate(GraphSpec(kind="complete", n=5, seed=130)),
                  (31.587682188443967, 0, (2, 1), [0, 1, 2], 2, 4, 5,
                   [(31.587682188443964, 31.587682188443967),
                    (31.587682188443967, 31.587682188443967)])),
    "sparse60": (generate(GraphSpec(kind="sparse", n=60, seed=5, target_edges=150,
                                    weight_range=(1.0, 100.0), integer_weights=True)),
                 (112.0, 2, (27, 54), [0, 54, 27, 38], 2, 6, 6, [(107.0, 113.0), (112.0, 112.0)])),
}
P1_PINNED = {
    "complete12": (42.857290429846195, 11, (8, 4), [4, 8, 6], 2, 5, 5,  # walk_start 4
                   [(30.375694222095316, 50.65316551844123),
                    (42.857290429846195, 42.857290429846195)]),
    "sparse60": (112.0, 2, (54, 27), [27, 54, 51, 38], 3, 7, 7,  # walk_start 27
                 [(107.0, 123.0), (107.0, 113.0), (112.0, 112.0)]),
}


@pytest.mark.parametrize("name", list(PINNED))
@pytest.mark.parametrize("mode", ["p1", "p2"])
def test_pinned_results(name, mode):
    g, pinned = PINNED[name]
    assert (name in P1_PINNED) == (g.walk_start != 0)
    if mode == "p1":
        provider = DistanceProvider.on_demand(g)
        pinned = P1_PINNED.get(name, pinned)
    radius, center, far, pivots, examined, sssp_count, rows, trace = pinned
    if mode == "p2":
        provider, sssp_count = DistanceProvider.from_matrix(apsp_repeated_sssp(g)), 0
    rr = find_radius(provider)
    assert rr == RadiusResult(
        radius=radius, center=center, far_pair=far, pivots=pivots,
        sssp_count=sssp_count, rows_accessed=rows, bound_trace=trace,
    )
    assert rr.candidates_examined == examined


@pytest.mark.parametrize("g", list(seeded_cases(6, master_seed=5)), ids=lambda g: f"n{g.n}m{g.m}")
def test_matrix_search_leaves_the_matrix_unchanged(g):
    M = apsp_repeated_sssp(g)
    before = M.values.tobytes()
    provider = DistanceProvider.from_matrix(M)
    diameter_p2(M, find_radius(provider), provider)
    assert M.values.tobytes() == before
