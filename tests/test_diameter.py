import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmetrics
from graphmetrics.diameter import (
    build_candidate_order,
    diameter_p1,
    diameter_p2,
    find_diameter,
)
from graphmetrics.graph import GraphSpec, GraphValidationError, from_arcs, generate
from graphmetrics.oracle import (
    apsp_repeated_sssp,
    dijkstra_matrix,
    floyd_warshall,
    scan_diameter,
    scan_metrics,
    scan_radius,
)
from graphmetrics.radius import find_radius
from graphmetrics.sssp import SPARSE_DEGREE_CUT, DistanceProvider, sssp, sssp_vectorized

from conftest import build_graph, weight_limit
from test_radius import PINNED, seeded_cases


def unit_complete(n):
    return generate(GraphSpec(kind="complete", n=n, seed=0, weight_range=(1.0, 1.0)))


class TestCandidateOrder:
    def test_sorted_with_id_tie_break(self):
        center_dist = np.array([1.0, 0.0, 1.0, 2.0])
        order = build_candidate_order(center_dist)
        assert order.tolist() == [3, 0, 2, 1]
        assert center_dist[order].tolist() == [2.0, 1.0, 1.0, 0.0]

    def test_pair_sums_non_increasing(self):
        rng = np.random.default_rng(8)
        center_dist = rng.uniform(0, 10, 40)
        sd = center_dist[build_candidate_order(center_dist)]
        for i in range(5):
            sums = sd[i] + sd[i + 1:]
            assert all(sums[k] >= sums[k + 1] for k in range(len(sums) - 1))
        # first sum of the next row never beats the first sum of this row
        for i in range(len(sd) - 2):
            assert sd[i] + sd[i + 1] >= sd[i + 1] + sd[i + 2]


class TestDiameterP2:
    def test_path_scans_single_row(self, path4):
        M = apsp_repeated_sssp(path4)
        p = DistanceProvider.from_matrix(M)
        rr = find_radius(p)
        dr = diameter_p2(M, rr, provider=p)
        assert dr.diameter == 3.0
        assert dr.peripheral_pair == (3, 0)
        assert dr.vertices_scanned == 1  # only vertex 3 has m_ic > d_l/2

    def test_complete_unit(self):
        g = unit_complete(4)
        M = apsp_repeated_sssp(g)
        p = DistanceProvider.from_matrix(M)
        dr = diameter_p2(M, find_radius(p), provider=p)
        assert dr.diameter == 1.0

    def test_tiny_graphs(self):
        g1 = build_graph(1, [])
        M1 = apsp_repeated_sssp(g1)
        p1 = DistanceProvider.from_matrix(M1)
        dr = diameter_p2(M1, find_radius(p1), p1)
        assert (dr.diameter, dr.peripheral_pair) == (0.0, (0, 0))

        g2 = build_graph(2, [(0, 1, 4.0)])
        M2 = apsp_repeated_sssp(g2)
        p2 = DistanceProvider.from_matrix(M2)
        dr = diameter_p2(M2, find_radius(p2), p2)
        assert (dr.diameter, dr.peripheral_pair) == (4.0, (1, 0))


    def test_counts_every_row_read(self):
        g = generate(GraphSpec(kind="sparse", n=12, seed=2, target_edges=16,
                               integer_weights=True))
        M = apsp_repeated_sssp(g)
        p = DistanceProvider.from_matrix(M)
        rr = find_radius(p)
        dr = diameter_p2(M, rr, provider=p)
        # row p1 for the initial bound, the center row, the scanned rows
        assert dr.rows_accessed - rr.rows_accessed == 2 + dr.vertices_scanned
        assert dr.vertices_scanned > 0
        assert dr.vertices_bounded == 0


class TestDiameterP1:
    def test_path_terminates_without_extra_sssp(self, path4):
        p = DistanceProvider.on_demand(path4)
        rr = find_radius(p)
        before = p.sssp_count
        dr = diameter_p1(path4, rr, p)
        assert dr.diameter == 3.0
        assert dr.peripheral_pair == (3, 0)
        assert dr.sssp_count == before  # first ordered pair already fails

    def test_star(self, star4):
        p = DistanceProvider.on_demand(star4)
        dr = diameter_p1(star4, find_radius(p), p)
        assert dr.diameter == 2.0

    def test_tiny_graphs(self):
        g = build_graph(2, [(0, 1, 4.0)])
        p = DistanceProvider.on_demand(g)
        dr = diameter_p1(g, find_radius(p), p)
        assert (dr.diameter, dr.peripheral_pair) == (4.0, (1, 0))


    def test_reads_one_row_per_pair(self):
        g = generate(GraphSpec(kind="sparse", n=12, seed=5, target_edges=16,
                               integer_weights=True))
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        dr = diameter_p1(g, rr, p)
        assert (dr.diameter, dr.peripheral_pair) == (287.0, (8, 4))
        assert dr.sssp_count - rr.sssp_count == 2

    def test_counts_every_row_read(self):
        g = generate(GraphSpec(kind="sparse", n=12, seed=5, target_edges=16,
                               integer_weights=True))
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        dr = diameter_p1(g, rr, p)
        # row p1 for the initial bound, the center row, one read per scanned row
        assert dr.rows_accessed - rr.rows_accessed == 2 + dr.vertices_scanned
        assert dr.vertices_scanned > 0


def held_upper_bound(provider):
    """Per vertex k, the least d(x, k) + ecc(x) over the rows x the provider holds."""
    rows = np.array(list(provider.held_rows().values()))
    return (rows + rows.max(axis=1, keepdims=True)).min(axis=0)


def todays_rule(g):
    """D1 before the pair bound, on a fresh provider: iFUB order, the center
    stop and ub[k] = min over held x of d(x, k) + ecc(x) alone, with every
    held row read again when its vertex is visited.
    (diameter, SSSPs this D1 ran)."""
    provider = DistanceProvider.on_demand(g)
    rr = find_radius(provider)
    before = provider.sssp_count
    center_row = provider.row(rr.center)
    ids = build_candidate_order(center_row)
    sd = center_row[ids]
    held = dict(provider.held_rows())
    ub = np.min([row + row.max() for row in held.values()], axis=0)
    p1, p2 = rr.far_pair
    d_l = float(provider.row(p1)[p2])
    for i in range(g.n - 1):
        if sd[i] + sd[i + 1] <= d_l:
            break
        k = int(ids[i])
        if k not in held:
            if ub[k] <= d_l:
                continue
            held[k] = provider.row(k)
            ub = np.minimum(ub, held[k] + held[k].max())
        d_l = max(d_l, float(held[k].max()))
    return d_l, provider.sssp_count - before


class TestHeldRowBound:
    def test_held_rows_are_not_row_reads(self, path4):
        p = DistanceProvider.on_demand(path4)
        p.row(2)
        held = p.held_rows()
        assert list(held) == [2] and p.rows_accessed == 1
        with pytest.raises(TypeError):
            held[0] = np.zeros(4)
        p.row(0)
        assert list(held) == [2, 0]  # a live view
        assert (p.rows_accessed, p.sssp_count) == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["complete", "sparse"]),
        n=st.integers(3, 80),
        extra=st.floats(0.0, 2.0),
        whi=st.sampled_from([0, 1, 3, 100]),
    )
    def test_sound_with_integer_weights(self, seed, kind, n, extra, whi):
        """The held-row pair bound passes over no pair that beats the bound,
        and it never costs an SSSP that ub alone would not."""
        g = generate(GraphSpec(
            kind=kind, n=n, seed=seed, weight_range=(0.0, float(whi)), integer_weights=True,
            target_edges=n - 1 + int(extra * n) if kind == "sparse" else None,
        ))
        M = apsp_repeated_sssp(g)
        ecc = M.values.max(axis=1)
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        assert (held_upper_bound(p) >= ecc).all()
        dr = diameter_p1(g, rr, p)
        assert (held_upper_bound(p) >= ecc).all()
        assert dr.diameter == scan_metrics(M).diameter == M.values[dr.peripheral_pair]
        assert dr.d_lower_trace[0] == M.values[rr.far_pair]
        assert dr.d_lower_trace == sorted(dr.d_lower_trace)
        assert dr.d_lower_trace[-1] == dr.diameter
        assert dr.vertices_scanned + dr.vertices_bounded <= dr.pairs_checked
        # Held rows are not read again: every row D1 reads runs an SSSP.
        assert dr.rows_accessed - rr.rows_accessed == 2 + dr.vertices_scanned
        assert dr.sssp_count - rr.sssp_count == dr.vertices_scanned
        assert dr.vertices_scanned <= todays_rule(g)[1]

    def test_fewer_sssps_than_todays_rule(self):
        """Over many graphs the pair bound passes over vertices; D1 finds the
        diameter today's rule finds, never with more SSSPs, and with fewer
        on some graphs."""
        bounded = fewer = 0
        for seed in range(400):
            n = 10 + seed % 60
            g = generate(GraphSpec(
                kind=("complete", "sparse")[seed % 2], n=n, seed=seed,
                weight_range=(0.0, (3.0, 100.0)[seed % 3 > 0]), integer_weights=True,
                target_edges=2 * n,
            ))
            p = DistanceProvider.on_demand(g)
            rr = find_radius(p)
            dr = diameter_p1(g, rr, p)
            d_l, sssps = todays_rule(g)
            assert dr.diameter == d_l, seed
            assert dr.sssp_count - rr.sssp_count <= sssps, seed
            fewer += dr.sssp_count - rr.sssp_count < sssps
            bounded += dr.vertices_bounded
        assert bounded > 100 and fewer > 10

    def test_pair_bound_passes_over_what_ub_cannot(self):
        """The held rows 3, 0 and 2 raise the bound to 9, and vertex 4 is
        visited next, with vertex 1 the only other one unsettled. ub[4] =
        d(0, 4) + ecc(0) = 10 cannot pass 4 over, but d(0, 4) + d(0, 1) = 6
        bounds the one pair 4 is still in. So D1 runs no SSSP, where ub alone
        runs one."""
        g = build_graph(5, [(0, 1, 5.0), (0, 4, 1.0), (1, 2, 1.0), (1, 4, 8.0),
                            (2, 3, 7.0), (3, 4, 8.0)])
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        rows = p.held_rows()
        assert list(rows) == [3, 0, 2] and rr.center == 2
        assert min(rows[x][4] + rows[x].max() for x in rows) == 10.0
        assert min(rows[x][4] + rows[x][1] for x in rows) == 6.0
        dr = diameter_p1(g, rr, p)
        assert (dr.diameter, dr.vertices_scanned, dr.vertices_bounded) == (9.0, 0, 1)
        assert dr.sssp_count == rr.sssp_count
        assert todays_rule(g)[1] == 1

    def test_last_unsettled_vertex_empties_r(self):
        """The held rows 2, 0 and 3 leave vertex 1 the only vertex in R.
        Visiting it empties R, so every row's farthest vertex in R reads
        -inf and the pair bound passes 1 over."""
        g = generate(GraphSpec(kind="sparse", n=4, seed=1021, target_edges=5,
                               weight_range=(0, 3), integer_weights=True))
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        assert list(p.held_rows()) == [2, 0, 3]
        dr = diameter_p1(g, rr, p)
        assert (dr.diameter, dr.vertices_scanned, dr.vertices_bounded) == (3.0, 0, 1)
        assert dr.sssp_count == rr.sssp_count
        assert dr.diameter == scan_metrics(apsp_repeated_sssp(g)).diameter

    def test_working_memory_does_not_grow_with_held_rows(self, monkeypatch):
        """D1 copies no held row: its peak allocation, less what it leaves
        allocated, grows by less than one row with 32 more rows held at its
        start. The kernel is replaced by copies of rows computed outside
        the measured call, so its temporaries do not count."""
        g = generate(GraphSpec(kind="sparse", n=2000, seed=0, target_edges=6000,
                               weight_range=(1.0, 100.0), integer_weights=True))
        computed = {}

        def row_copy(graph, source):
            if source not in computed:
                computed[source] = sssp(graph, source)
            return computed[source].copy()

        monkeypatch.setattr(graphmetrics.sssp, "sssp", row_copy)

        def working_bytes(extra):
            p = DistanceProvider.on_demand(g)
            rr = find_radius(p)
            for s in extra:
                p.row(s)
            tracemalloc.start()
            try:
                diameter_p1(g, rr, p)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current

        extra = range(0, g.n, 63)
        for held in ([], extra):  # compute every row first
            working_bytes(held)
        assert working_bytes(extra) - working_bytes([]) < 8 * g.n

    def test_float_pair_is_read_from_row_k(self):
        """With float weights D1 reports d(k, l) as row k holds it. Here D1
        passes over one vertex and reads one row, and the oracle's maximum,
        d(l, k) read from row l, is one ulp larger."""
        g = generate(GraphSpec(kind="complete", n=12, seed=788))
        M = apsp_repeated_sssp(g)
        p = DistanceProvider.on_demand(g)
        dr = diameter_p1(g, find_radius(p), p)
        k, l = dr.peripheral_pair
        assert (k, l) == (3, 5) and (dr.vertices_bounded, dr.vertices_scanned) == (1, 1)
        assert dr.diameter == M.values[k, l]
        assert scan_metrics(M).diameter == M.values[l, k] == np.nextafter(dr.diameter, np.inf)


class TestZeroDiameter:
    @pytest.mark.parametrize("g", [
        generate(GraphSpec(kind="complete", n=4, seed=0, weight_range=(0.0, 0.0))),
        build_graph(3, [(0, 1, 0.0), (1, 2, 0.0)]),
        build_graph(2, [(0, 1, 0.0)]),
        build_graph(1, []),
    ], ids=["complete4", "path3", "edge2", "vertex1"])
    def test_pair_is_two_vertices(self, g):
        M = apsp_repeated_sssp(g)
        p1, p2 = DistanceProvider.on_demand(g), DistanceProvider.from_matrix(M)
        for dr in (diameter_p1(g, find_radius(p1), p1), diameter_p2(M, find_radius(p2), p2)):
            a, b = dr.peripheral_pair
            assert dr.diameter == 0.0 and (a != b) == (g.n > 1)
            assert (dr.diameter, dr.peripheral_pair) == scan_diameter(M)
            assert dr.peripheral_pair == scan_metrics(M).all_peripheral_pairs[0]


class TestExactness:
    @pytest.mark.parametrize("g", list(seeded_cases(24, master_seed=55)), ids=lambda g: f"n{g.n}m{g.m}")
    def test_both_searches_match_oracle(self, g):
        M = apsp_repeated_sssp(g)
        oracle = scan_metrics(M)

        p1 = DistanceProvider.on_demand(g)
        rr1 = find_radius(p1)
        dr1 = diameter_p1(g, rr1, p1)
        p2 = DistanceProvider.from_matrix(M)
        rr2 = find_radius(p2)
        dr2 = diameter_p2(M, rr2, provider=p2)
        for rr, dr in ((rr1, dr1), (rr2, dr2)):  # no row is read twice
            assert dr.rows_accessed - rr.rows_accessed == 2 + dr.vertices_scanned

        assert dr1.diameter == oracle.diameter == dr2.diameter
        assert M.values[dr1.peripheral_pair] == oracle.diameter
        assert M.values[dr2.peripheral_pair] == oracle.diameter
        assert dr1.diameter >= rr1.radius
        assert dr1.diameter <= 2.0 * rr1.radius

    @pytest.mark.parametrize("g", list(seeded_cases(10, master_seed=99)), ids=lambda g: f"n{g.n}m{g.m}")
    def test_lower_bound_trace(self, g):
        M = apsp_repeated_sssp(g)
        oracle = scan_metrics(M)
        p1, p2 = DistanceProvider.on_demand(g), DistanceProvider.from_matrix(M)
        rr1, rr2 = find_radius(p1), find_radius(p2)
        for rr, dr in ((rr1, diameter_p1(g, rr1, p1)), (rr2, diameter_p2(M, rr2, provider=p2))):
            # the start is a real distance: the radius search's far pair
            assert dr.d_lower_trace[0] == M.values[rr.far_pair]
            assert dr.d_lower_trace == sorted(dr.d_lower_trace)
            assert all(v <= oracle.diameter for v in dr.d_lower_trace)
            assert dr.d_lower_trace[-1] == oracle.diameter


class TestPruningSoundness:
    def test_half_bound_filter(self):
        g = generate(GraphSpec(kind="sparse", n=70, seed=41, target_edges=180))
        M = apsp_repeated_sssp(g).values
        oracle = scan_metrics(apsp_repeated_sssp(g))
        c = oracle.all_centers[0]
        d = oracle.diameter
        rng = np.random.default_rng(2)
        for _ in range(500):
            i, j = rng.integers(0, g.n, 2)
            if M[i, c] <= d / 2 and M[j, c] <= d / 2:
                assert M[i, j] <= M[i, c] + M[c, j] <= d + 1e-9

    def test_pair_sum_filter(self):
        g = generate(GraphSpec(kind="complete", n=50, seed=42))
        M = apsp_repeated_sssp(g).values
        d = scan_metrics(apsp_repeated_sssp(g)).diameter
        c = int(M.max(axis=1).argmin())
        for k in range(g.n):
            for l in range(k + 1, g.n):
                if M[k, c] + M[c, l] <= d:
                    assert M[k, l] <= d + 1e-9


class TestFindDiameter:
    GRAPHS = [g for g, _ in PINNED.values()] + list(seeded_cases(4, master_seed=31)) + [
        generate(GraphSpec(kind=kind, n=n, seed=seed, target_edges=2 * n if kind == "sparse" else None))
        for kind, n, seed in (("complete", 9, 1), ("sparse", 40, 2), ("sparse", 75, 3))
    ]  # PINNED, then integer weights, then float weights

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_runs_the_variant_of_the_providers_backing(self, g):
        M = apsp_repeated_sssp(g)
        for make, variant in (
            (lambda: DistanceProvider.on_demand(g), lambda rr, p: diameter_p1(g, rr, p)),
            (lambda: DistanceProvider.from_matrix(M), lambda rr, p: diameter_p2(M, rr, provider=p)),
        ):
            found, direct = make(), make()
            assert find_diameter(find_radius(found), found) == variant(find_radius(direct), direct)

    @pytest.mark.parametrize("g", [
        generate(GraphSpec(kind="sparse", n=12, seed=5, target_edges=16, integer_weights=True)),
        generate(GraphSpec(kind="complete", n=30, seed=5)),
    ], ids=["sparse12", "complete30"])
    def test_on_demand_search_reads_no_graph(self, g):
        p, q = DistanceProvider.on_demand(g), DistanceProvider.on_demand(g)
        dr = diameter_p1(build_graph(1, []), find_radius(p), p)
        assert dr == diameter_p1(g, find_radius(q), q)
        assert dr.vertices_scanned > 0

    def test_provider_exposes_its_backing(self, path4):
        M = apsp_repeated_sssp(path4)
        on_demand, from_matrix = DistanceProvider.on_demand(path4), DistanceProvider.from_matrix(M)
        assert on_demand.graph is path4 and on_demand.matrix is None
        assert from_matrix.matrix is M and from_matrix.graph is None

    def test_is_the_package_search_api(self):
        # diameter_p1 and diameter_p2 stay importable from graphmetrics.diameter (see above)
        assert {"find_radius", "find_diameter"} <= set(graphmetrics.__all__)
        for name in ("diameter_p1", "diameter_p2"):
            assert name not in graphmetrics.__all__ and not hasattr(graphmetrics, name)


def test_sums_above_float_max_are_silent_in_process():
    # 1.6e308 + 8e307 is not finite, so the graph whose sums would pass
    # float max is refused at input rather than searched.
    with pytest.raises(GraphValidationError, match="need 4 \\* n \\* w_max finite"):
        build_graph(3, [(0, 1, 8e307), (0, 2, 8e307)])
    # At the largest accepted weight every sum stays finite. Tier-1 turns a
    # RuntimeWarning into an error, so each call below would fail if it warned.
    w = weight_limit(3)
    g = build_graph(3, [(0, 1, w), (0, 2, w)])
    rows = [sssp(g, s).tolist() for s in range(g.n)]
    assert rows == [[0.0, w, w], [w, 0.0, 2 * w], [w, 2 * w, 0.0]]
    M = dijkstra_matrix(g)
    provider = DistanceProvider.on_demand(g)
    rr = find_radius(provider)
    dr = find_diameter(rr, provider)
    assert (rr.radius, rr.center) == scan_radius(M)
    assert (dr.diameter, tuple(sorted(dr.peripheral_pair))) == scan_diameter(M)


@st.composite
def graphs_at_the_weight_limit(draw):
    """(n, u, v, w): a path, a star or a sparse graph below the degree cut on
    2 to 50 vertices, or one complete:70 above it, with weights in
    [0, weight_limit(n)]; in some draws every edge weighs the limit."""
    kind = draw(st.sampled_from(["path", "star", "sparse", "complete"]))
    n = 70 if kind == "complete" else draw(st.sampled_from([2, 3, 5, 50]) | st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "path":
        u, v = np.arange(n - 1), np.arange(1, n)
    elif kind == "star":
        u, v = np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
    elif kind == "sparse":  # a random tree plus a few extra edges: degree below the cut
        v = np.arange(1, n)
        u = np.array([rng.integers(0, x) for x in v.tolist()], dtype=np.int64)
        extra = rng.integers(0, n, size=(2, n))
        u, v = np.concatenate([u, extra[0]]), np.concatenate([v, extra[1]])
    else:
        u, v = np.triu_indices(n, 1)
    w_lim = weight_limit(n)
    if draw(st.booleans()):
        w = np.full(u.size, w_lim)
    else:
        w = rng.uniform(0.0, w_lim, size=u.size)
        w[rng.random(u.size) < 0.5] = w_lim
    return n, u, v, w


@settings(max_examples=60, deadline=None)
@given(graphs_at_the_weight_limit())
def test_sums_at_the_weight_limit_stay_finite(case):
    # Tier-1 turns a RuntimeWarning into an error, so an overflowing sum in
    # any kernel or search below fails the test.
    n, u, v, w = case
    g = from_arcs(n, u, v, w)
    assert (g.average_degree >= SPARSE_DEGREE_CUT) == (n == 70)
    for s in range(n):
        assert sssp(g, s).tobytes() == sssp_vectorized(g, s).tobytes()
    providers = [DistanceProvider.on_demand(g)] + [
        DistanceProvider.from_matrix(build(g)) for build in (dijkstra_matrix, floyd_warshall)]
    for provider in providers:
        rr = find_radius(provider)
        dr = find_diameter(rr, provider)
        assert np.isfinite([rr.radius, dr.diameter]).all()
    above = w.copy()
    above[0] = np.nextafter(weight_limit(n), np.inf)
    with pytest.raises(GraphValidationError, match="need 4 \\* n \\* w_max finite"):
        from_arcs(n, u, v, above)
