import numpy as np
import pytest

from graphmetrics.diameter import (
    build_candidate_order,
    diameter_p1,
    diameter_p2,
    initial_lower_bound,
)
from graphmetrics.graph import GraphSpec, generate
from graphmetrics.oracle import apsp_repeated_sssp, scan_metrics
from graphmetrics.radius import find_radius
from graphmetrics.sssp import DistanceProvider

from conftest import build_graph
from test_radius import seeded_cases


def unit_complete(n):
    return generate(GraphSpec(kind="complete", n=n, seed=0, weight_range=(1.0, 1.0)))


class TestInitialLowerBound:
    def test_path_pivots(self, path4):
        p = DistanceProvider.on_demand(path4)
        rr = find_radius(p)
        assert rr.pivots[:2] == [3, 0]
        d_l, pair = initial_lower_bound(rr.pivots, p)
        assert (d_l, pair) == (3.0, (3, 0))

    def test_complete_unit(self):
        g = unit_complete(4)
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        d_l, _ = initial_lower_bound(rr.pivots, p)
        assert d_l == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_never_exceeds_diameter(self, seed):
        g = generate(GraphSpec(kind="sparse", n=90, seed=seed, target_edges=220))
        M = apsp_repeated_sssp(g)
        p = DistanceProvider.from_matrix(M)
        rr = find_radius(p)
        d_l, pair = initial_lower_bound(rr.pivots, p)
        assert d_l <= scan_metrics(M).diameter
        assert M.values[pair] == d_l


class TestCandidateOrder:
    def test_sorted_with_id_tie_break(self):
        order = build_candidate_order(np.array([1.0, 0.0, 1.0, 2.0]))
        assert order.order.tolist() == [3, 0, 2, 1]
        assert order.sorted_dist.tolist() == [2.0, 1.0, 1.0, 0.0]

    def test_pair_sums_non_increasing(self):
        rng = np.random.default_rng(8)
        co = build_candidate_order(rng.uniform(0, 10, 40))
        sd = co.sorted_dist
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
        dr = diameter_p2(M1, find_radius(p1))
        assert (dr.diameter, dr.peripheral_pair) == (0.0, (0, 0))

        g2 = build_graph(2, [(0, 1, 4.0)])
        M2 = apsp_repeated_sssp(g2)
        p2 = DistanceProvider.from_matrix(M2)
        dr = diameter_p2(M2, find_radius(p2))
        assert (dr.diameter, dr.peripheral_pair) == (4.0, (0, 1))


    def test_counts_every_row_read(self):
        g = generate(GraphSpec(kind="sparse", n=12, seed=2, target_edges=16,
                               integer_weights=True))
        M = apsp_repeated_sssp(g)
        p = DistanceProvider.from_matrix(M)
        rr = find_radius(p)
        dr = diameter_p2(M, rr, provider=p)
        # pivot rows for the initial bound, the center row, the scanned rows
        assert dr.rows_accessed - rr.rows_accessed == len(rr.pivots) + 1 + dr.vertices_scanned
        assert dr.vertices_scanned > 0


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
        assert (dr.diameter, dr.peripheral_pair) == (4.0, (0, 1))


    def test_reads_one_row_per_pair(self):
        g = generate(GraphSpec(kind="sparse", n=12, seed=5, target_edges=16,
                               integer_weights=True))
        p = DistanceProvider.on_demand(g)
        rr = find_radius(p)
        dr = diameter_p1(g, rr, p)
        assert (dr.diameter, dr.peripheral_pair) == (287.0, (8, 4))
        assert dr.sssp_count - rr.sssp_count == 2


class TestExactness:
    @pytest.mark.parametrize("g", list(seeded_cases(24, master_seed=55)), ids=lambda g: f"n{g.n}m{g.m}")
    def test_both_searches_match_oracle(self, g):
        M = apsp_repeated_sssp(g)
        oracle = scan_metrics(M)

        p1 = DistanceProvider.on_demand(g)
        dr1 = diameter_p1(g, find_radius(p1), p1)
        p2 = DistanceProvider.from_matrix(M)
        dr2 = diameter_p2(M, find_radius(p2), provider=p2)

        assert dr1.diameter == oracle.diameter == dr2.diameter
        assert M.values[dr1.peripheral_pair] == oracle.diameter
        assert M.values[dr2.peripheral_pair] == oracle.diameter
        assert dr1.diameter >= dr1.radius_result.radius
        assert dr1.diameter <= 2.0 * dr1.radius_result.radius

    @pytest.mark.parametrize("g", list(seeded_cases(10, master_seed=99)), ids=lambda g: f"n{g.n}m{g.m}")
    def test_lower_bound_trace(self, g):
        M = apsp_repeated_sssp(g)
        oracle = scan_metrics(M)
        p = DistanceProvider.from_matrix(M)
        dr = diameter_p2(M, find_radius(p), provider=p)
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
