import math

import numpy as np
import pytest

from graphmetrics.graph import GraphSpec, generate
from graphmetrics.oracle import apsp_repeated_sssp, scan_metrics
from graphmetrics.radius import PivotState, far_pair, find_radius
from graphmetrics.sssp import DistanceProvider, sssp

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


class TestFarPair:
    def test_path_walk(self, path4):
        # walk 0 -> 3 -> 0 revisits, so the pair is (3, 0)
        assert far_pair(DistanceProvider.on_demand(path4)) == (3, 0)

    def test_star_walk(self, star4):
        # 0 -> 1 -> 2 -> 1 revisits leaf 1
        assert far_pair(DistanceProvider.on_demand(star4)) == (2, 1)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert far_pair(DistanceProvider.on_demand(g)) == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_weights_give_two_vertices(self, n):
        g = build_graph(n, [(i, i + 1, 0.0) for i in range(n - 1)])
        assert far_pair(DistanceProvider.on_demand(g)) == (0, 1)

    def test_pair_beats_random_pairs(self):
        g = generate(GraphSpec(kind="sparse", n=100, seed=5, target_edges=250))
        M = apsp_repeated_sssp(g).values
        p1, p2 = far_pair(DistanceProvider.on_demand(g))
        rng = np.random.default_rng(1)
        sample = M[rng.integers(0, 100, 50), rng.integers(0, 100, 50)]
        assert M[p1, p2] >= sample.max()


class TestPivotState:
    def _state_with_pivots(self, g, pivots):
        state = PivotState(g.n)
        for p in pivots:
            state.update_pivot_max(p, sssp(g, p))
        return state

    def test_select_candidate_path(self, path4):
        state = self._state_with_pivots(path4, [0, 3])
        assert state.pivot_max.tolist() == [3.0, 2.0, 2.0, 3.0]
        c, r_l = state.select_candidate()
        assert (c, r_l) == (1, 2.0)

    def test_select_candidate_skips_examined(self):
        g = build_graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        state = self._state_with_pivots(g, [0, 1])
        state.mark_examined(0)
        state.mark_examined(1)
        c, r_l = state.select_candidate()
        assert (c, r_l) == (2, 1.0)

    def test_exhaustion_signal(self):
        g = build_graph(2, [(0, 1, 1.0)])
        state = self._state_with_pivots(g, [0])
        state.mark_examined(0)
        state.mark_examined(1)
        assert state.select_candidate() is None

    def test_update_is_elementwise_max(self, path4):
        state = self._state_with_pivots(path4, [0, 3])
        state.update_pivot_max(1, sssp(path4, 1))  # row [1,0,1,2]
        assert state.pivot_max.tolist() == [3.0, 2.0, 2.0, 3.0]

    def test_first_row_becomes_pivot_max(self, path4):
        state = PivotState(4)
        row = sssp(path4, 2)
        state.update_pivot_max(2, row)
        assert state.pivot_max.tolist() == row.tolist()

    def test_duplicate_pivot_is_noop(self, path4):
        state = self._state_with_pivots(path4, [0])
        state.update_pivot_max(0, sssp(path4, 0))
        assert state.pivots == [0]

    def test_pivot_max_matches_brute_force(self):
        g = generate(GraphSpec(kind="sparse", n=40, seed=2, target_edges=100))
        M = apsp_repeated_sssp(g).values
        pivots = [3, 17, 8, 25]
        state = PivotState(g.n)
        for p in pivots:
            state.update_pivot_max(p, M[p])
        state.mark_examined(5)  # examined entries are pinned at +inf
        expected = M[pivots].max(axis=0)
        expected[5] = math.inf
        np.testing.assert_array_equal(state.pivot_max, expected)


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
