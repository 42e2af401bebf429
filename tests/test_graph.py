import dataclasses
import math
import re
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphmetrics import graph as graph_module
from graphmetrics.graph import (
    DimacsParseError,
    Graph,
    GraphSpec,
    GraphValidationError,
    check_connected,
    from_arcs,
    generate,
    load_dimacs,
    write_dimacs,
)
from graphmetrics.oracle import floyd_warshall
from graphmetrics.sssp import DisconnectedGraphError, sssp

from conftest import build_graph, weight_limit
from test_cli import corrupt_dimacs


def write_gr(tmp_path, text, name="g.gr"):
    p = tmp_path / name
    p.write_text(text)
    return p


def edge_list(g):
    """Each undirected edge once as (u, v, w) with u < v, read from the CSR arrays."""
    u = np.repeat(np.arange(g.n), np.diff(g.indptr))
    keep = u < g.indices
    return list(zip(u[keep].tolist(), g.indices[keep].tolist(), g.weights[keep].tolist()))


class TestLoadDimacs:
    def test_basic_round_graph(self, tmp_path):
        p = write_gr(
            tmp_path,
            "c comment line\n"
            "p sp 3 4\n"
            "a 1 2 5\n"
            "a 2 1 5\n"
            "a 2 3 7\n"
            "a 3 2 7\n",
        )
        g = load_dimacs(p)
        assert g.n == 3
        assert g.m == 2
        assert edge_list(g) == [(0, 1, 5.0), (1, 2, 7.0)]

    def test_parallel_arcs_collapse_to_min(self, tmp_path):
        p = write_gr(tmp_path, "p sp 2 2\na 1 2 5\na 1 2 3\n")
        g = load_dimacs(p)
        assert g.m == 1
        assert edge_list(g) == [(0, 1, 3.0)]

    def test_missing_reverse_direction_added(self, tmp_path):
        p = write_gr(tmp_path, "p sp 2 1\na 1 2 4\n")
        g = load_dimacs(p)
        nbrs, ws = g.neighbors(1)
        assert nbrs.tolist() == [0] and ws.tolist() == [4.0]

    def test_vertex_out_of_range(self, tmp_path):
        p = write_gr(tmp_path, "p sp 3 1\na 1 4 2\n")
        with pytest.raises(GraphValidationError, match="line 2"):
            load_dimacs(p)

    def test_negative_weight(self, tmp_path):
        p = write_gr(tmp_path, "p sp 2 1\na 1 2 -3\n")
        with pytest.raises(GraphValidationError, match="negative"):
            load_dimacs(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = write_gr(tmp_path, "p sp 2 1\na 1 2\n")
        with pytest.raises(DimacsParseError, match="line 2"):
            load_dimacs(p)

    def test_missing_header(self, tmp_path):
        p = write_gr(tmp_path, "a 1 2 3\n")
        with pytest.raises(DimacsParseError, match="header"):
            load_dimacs(p)

    def test_decimal_weights_accepted(self, tmp_path):
        p = write_gr(tmp_path, "p sp 2 1\na 1 2 2.5\n")
        assert edge_list(load_dimacs(p)) == [(0, 1, 2.5)]

    @pytest.mark.parametrize("arcs", ["a 1 2 -0\na 1 2 0\n", "a 1 2 0\na 2 1 -0\n"],
                             ids=["minus-first", "minus-last"])
    def test_signed_zero_parallel_arcs_load_as_plus_zero(self, tmp_path, arcs):
        g = load_dimacs(write_gr(tmp_path, "p sp 2 2\n" + arcs))
        assert g.weights.tobytes() == np.zeros(2).tobytes()

    def test_self_loops_dropped(self, tmp_path):
        p = write_gr(tmp_path, "p sp 2 2\na 1 1 9\na 1 2 1\n")
        g = load_dimacs(p)
        assert g.m == 1

    def test_arc_count_must_match_header(self, tmp_path):
        p = write_gr(tmp_path, "p sp 4 6\na 1 2 1\na 2 1 1\na 2 3 1\na 3 2 1\n")
        with pytest.raises(DimacsParseError, match="declares 6 arcs but the file has 4"):
            load_dimacs(p)

    def test_negative_arc_count(self, tmp_path):
        p = write_gr(tmp_path, "p sp 4 -3\na 1 2 1\na 2 3 1\na 3 4 1\n")
        with pytest.raises(DimacsParseError, match="line 1: arc count must be >= 0"):
            load_dimacs(p)

    def test_byte_not_utf8_in_comment_ignored(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_bytes(b"c caf\xe9 \xff\np sp 2 1\na 1 2 4\n")
        assert edge_list(load_dimacs(p)) == [(0, 1, 4.0)]

    @pytest.mark.parametrize("data, where", [
        (b"p sp 2 1\na 1 2 \xff\n", "line 2: byte 0xff"),
        (b"p sp 2 1\na 1 2 4\xe9\n", "line 2: byte 0xe9"),
        (b"p sp 2 \xb91\na 1 2 4\n", "line 1: byte 0xb9"),
        (b"p sp 2 1\n\xffa 1 2 4\n", "line 2: byte 0xff"),
    ], ids=["arc-field", "arc-field-tail", "header-field", "line-type"])
    def test_byte_not_utf8_in_data_line_named(self, tmp_path, data, where):
        p = tmp_path / "g.gr"
        p.write_bytes(data)
        with pytest.raises(DimacsParseError, match=f"{where} is not UTF-8 text"):
            load_dimacs(p)

    def test_line_error_wins_over_arc_count(self, tmp_path):
        p = write_gr(tmp_path, "p sp 3 5\na 1 2 1\na 2 x 1\n")
        with pytest.raises(DimacsParseError, match="line 3"):
            load_dimacs(p)

    def test_roundtrip_through_writer(self, tmp_path):
        g = generate(GraphSpec(kind="sparse", n=40, seed=3, target_edges=80))
        out = tmp_path / "round.gr"
        write_dimacs(g, out)
        g2 = load_dimacs(out)
        assert g2.n == g.n and g2.m == g.m
        assert edge_list(g2) == edge_list(g)


def _weights(rng, kind, size):
    if kind == "float":
        return rng.uniform(0.0, 100.0, size)
    if kind == "int":
        return rng.integers(0, 1000, size).astype(np.float64)
    if kind == "huge":  # every float from 2**53 up is an integer
        return 2.0 ** rng.uniform(53.0, 1000.0, size)
    return np.round(rng.uniform(0.0, 100.0, size), int(rng.integers(1, 4)))  # short decimals


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["complete", "sparse"]),
    weights=st.sampled_from(["float", "int", "huge", "decimal"]),
)
def test_write_load_round_trip(tmp_path_factory, seed, kind, weights):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    shape = generate(GraphSpec(kind=kind, n=n, seed=seed,
                               target_edges=2 * n if kind == "sparse" else None))
    edges = [(u, v) for u, v, _ in edge_list(shape)]
    w = _weights(rng, weights, len(edges))
    g = build_graph(n, [(u, v, x) for (u, v), x in zip(edges, w.tolist())])
    path = tmp_path_factory.mktemp("round") / "g.gr"
    write_dimacs(g, path)
    back = load_dimacs(path)
    assert (back.n, back.m) == (g.n, g.m)
    for name in ("indptr", "indices", "weights"):
        assert getattr(back, name).tobytes() == getattr(g, name).tobytes()


def read_lines(path):
    """The per-line reader on the file, opened as load_dimacs opens it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return graph_module._load_lines(fh)


def outcome(load, path):
    """The CSR arrays' bytes, or the type and message of what load raised."""
    try:
        g = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return g.n, g.m, g.indptr.tobytes(), g.indices.tobytes(), g.weights.tobytes()


# One weight spelled in each way DIMACS files and float() share; "-0" is -0.0.
WEIGHT_TEXT = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 999), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.integers(0, 999).map(lambda k: f".{k}"),
    st.integers(0, 999).map(lambda k: f"{k}."),
    st.tuples(st.integers(0, 99), st.integers(-20, 20)).map(lambda t: f"{t[0]}e{t[1]}"),
    st.sampled_from(["7", "2.5", ".25", "3.", "1e1", "1e-3", "-0"]),
)
COMMENT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12).map(
    lambda t: "c" + t)
SEPARATOR = st.sampled_from([" ", "  ", "\t", " \t "])
LINE_END = st.sampled_from(["\n", "\r\n"])


@st.composite
def dimacs_files(draw):
    """Files the line reader accepts, laid out in the ways DIMACS files
    vary: comments before and after the header, blank lines, CRLF ends,
    tabs and runs of spaces, every weight spelling, self-loops and
    parallel arcs."""
    n = draw(st.integers(1, 6))
    ids = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(ids, ids, WEIGHT_TEXT), max_size=12))
    lead = draw(st.sampled_from(["", "", "", " "]))  # " c" starts a comment too
    comment = COMMENT.map(lambda text: lead + text)

    def line(fields):
        pad = draw(st.sampled_from(["", " ", "\t"]))
        return pad + draw(SEPARATOR).join(fields) + draw(st.sampled_from(["", " ", "\t"]))

    lines = draw(st.lists(comment, max_size=3)) + [line(["p", "sp", str(n), str(len(arcs))])]
    for u, v, w in arcs:
        lines += draw(st.lists(st.one_of(comment, st.sampled_from(["", " \t"])), max_size=2))
        lines.append(line(["a", str(u), str(v), w]))
    lines += draw(st.lists(comment, max_size=1))
    return "".join(text + draw(LINE_END) for text in lines).encode()


# Plain files that only from_arcs refuses: an id of 0, weights whose path
# sum (2 edges of 1e308) overflows, no vertex, an n whose arc key
# u * n + v cannot be an int64, and weights whose path sums fit (2 edges of
# 8e307) but 4 * n * w_max does not.
ARC_RULE_FILES = [
    "p sp 3 2\na 0 2 1\na 2 3 1\n",
    "p sp 3 2\na 1 2 1e308\na 2 3 1e308\n",
    "p sp 0 1\na 1 1 1\n",
    "p sp 100000000000000000000 1\na 1 2 1\n",
    "p sp 3 2\na 1 2 8e307\na 1 3 8e307\n",
]


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(data=st.one_of(dimacs_files(), corrupt_dimacs().map(lambda case: case[0])))
@example(data=ARC_RULE_FILES[0].encode())
@example(data=ARC_RULE_FILES[1].encode())
@example(data=ARC_RULE_FILES[2].encode())
@example(data=ARC_RULE_FILES[3].encode())
@example(data=ARC_RULE_FILES[4].encode())
def test_bulk_reader_agrees_with_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("agree") / "g.gr"
    path.write_bytes(data)
    assert outcome(load_dimacs, path) == outcome(read_lines, path)


@pytest.mark.parametrize(
    "text", ARC_RULE_FILES, ids=["id-0", "path-sum", "n-0", "n-too-large", "search-sum"])
def test_bulk_reader_leaves_arc_rules_to_from_arcs(text, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return from_arcs(*args)

    monkeypatch.setattr(graph_module, "from_arcs", spy)
    assert graph_module._load_plain(text) is None
    assert len(calls) == 1


def test_plain_files_take_the_bulk_path(tmp_path, monkeypatch):
    g = generate(GraphSpec(kind="sparse", n=40, seed=3, target_edges=80))
    written = tmp_path / "written.gr"
    write_dimacs(g, written)
    # the layout of perfbench/reference.py: both arc directions, .17g weights
    rng = np.random.default_rng(5)
    u, v = rng.integers(1, 31, size=(2, 60))
    w = rng.uniform(0.0, 100.0, size=60)
    reference = tmp_path / "reference.gr"
    reference.write_text("\n".join(
        ["p sp 30 120"] + [f"a {a} {b} {x:.17g}" for a, b, x in zip(u, v, w)]
        + [f"a {b} {a} {x:.17g}" for a, b, x in zip(u, v, w)]) + "\n")
    road = tmp_path / "road.gr"
    road.write_text(
        "c 9th DIMACS Implementation Challenge: Shortest Paths\n"
        "c TIGER/Line graph USA-road-d.NY\nc\n"
        "p sp 4 6\n"
        "c graph contains 4 nodes and 6 arcs\nc\n"
        "a 1 2 803\na 2 1 803\na 2 3 158\na 3 2 158\na 3 4 774\na 4 3 774\n"
    )
    expected = {p: outcome(read_lines, p) for p in (written, reference, road)}
    assert expected[written] == outcome(lambda _: g, written)

    def refuse(lines):
        raise AssertionError("a plain file was read line by line")

    monkeypatch.setattr(graph_module, "_load_lines", refuse)
    for path, want in expected.items():
        assert outcome(load_dimacs, path) == want


def lexsort_build(n, u, v, w):
    """from_arcs's CSR arrays and m by a sort on (u, v, w) that keeps each
    (u, v)'s first arc: the reference the single-key build must match."""
    w = np.asarray(w, dtype=np.float64) + 0.0
    uu, vv, ww = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    keep = uu != vv
    uu, vv, ww = uu[keep], vv[keep], ww[keep]
    if uu.size:
        order = np.lexsort((ww, vv, uu))
        uu, vv, ww = uu[order], vv[order], ww[order]
        first = np.ones(uu.size, dtype=bool)
        first[1:] = (uu[1:] != uu[:-1]) | (vv[1:] != vv[:-1])
        uu, vv, ww = uu[first], vv[first], ww[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, uu + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, vv, ww, uu.size // 2


@st.composite
def multigraphs(draw):
    """Few vertices and many arcs: self-loops, parallel arcs both ways with
    equal, distinct and signed-zero weights, isolated vertices, no arcs."""
    n = draw(st.integers(1, 7))
    ids = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(0.0, 1e9))
    arcs = draw(st.lists(st.tuples(ids, ids, weight), max_size=30))
    u, v, w = zip(*arcs) if arcs else ((), (), ())
    return n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(w)


class TestFromArcs:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_same_bytes_as_the_lexsort_build(self, drawn):
        n, u, v, w = drawn
        g = from_arcs(n, u, v, w)
        indptr, indices, weights, m = lexsort_build(n, u, v, w)
        assert g.m == m
        for got, want in ((g.indptr, indptr), (g.indices, indices), (g.weights, weights)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert not np.signbit(g.weights).any()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(GraphValidationError, match="non-finite"):
            build_graph(3, [(0, 1, 1.0), (1, 2, weight)])

    def test_weights_whose_path_sum_overflows_rejected(self):
        with pytest.raises(GraphValidationError, match="too large"):
            build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
        # a path of n - 1 such edges sums to 1.6e308, but 4 * n * 8e307 is inf
        with pytest.raises(GraphValidationError, match=re.escape(
                "edge weight 8e+307 too large: the searches need 4 * n * w_max finite (n=3)")):
            build_graph(3, [(0, 1, 8e307), (1, 2, 8e307)])
        assert build_graph(3, [(0, 1, weight_limit(3)), (1, 2, weight_limit(3))]).m == 2

    # Sizes whose arc key u * n + v overflows int64; each is refused before
    # any array is allocated (an indptr of n + 1 entries would not fit).
    @pytest.mark.parametrize("n, arcs", [
        (3_037_000_500, []),
        (4_000_000_000, [(3_999_999_999, 3_999_999_998)]),
        (2 * 10**18, []),
        (10**20, []),
    ])
    def test_n_whose_arc_key_overflows_rejected(self, n, arcs):
        with pytest.raises(GraphValidationError, match=f"^graph refused: n={n} is too large"):
            build_graph(n, [(u, v, 1.0) for u, v in arcs])

    def test_sums_fit(self):
        # The rule Graph.sums_fit reported is now checked at input.
        assert build_graph(1, []).n == 1
        # a path of n - 1 such edges is finite, but 8e307 * 4 * n is not
        with pytest.raises(GraphValidationError, match="too large"):
            build_graph(3, [(0, 1, 8e307), (0, 2, 8e307)])

    def test_sums_fit_boundary(self):
        n = 3
        w = weight_limit(n)  # the largest weight with 4 * n * w finite
        assert math.isfinite(4 * n * w)
        assert build_graph(n, [(0, 1, w), (1, 2, 1.0)]).m == 2
        above = math.nextafter(w, math.inf)
        assert not math.isfinite(4 * n * above)
        with pytest.raises(GraphValidationError, match="too large"):
            build_graph(n, [(0, 1, above), (1, 2, 1.0)])

    def test_every_vertex_has_arc(self, path4):
        assert path4.every_vertex_has_arc
        assert not build_graph(3, [(0, 1, 1.0)]).every_vertex_has_arc
        assert not build_graph(1, []).every_vertex_has_arc

    def test_walk_start_one_vertex(self):
        assert build_graph(1, []).walk_start == 0

    def test_walk_start_with_a_vertex_without_arcs(self):
        # vertex 3 has no arc; the other lightest arcs are 2, 5 and 5
        assert build_graph(4, [(0, 1, 2.0), (1, 2, 5.0)]).walk_start == 0

    def test_walk_start_zero_weights(self):
        assert build_graph(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0)]).walk_start == 0

    def test_walk_start_tie_takes_the_smallest_id(self):
        # a 4-cycle with lightest arcs 1, 3, 3, 1: vertices 1 and 2 tie
        g = build_graph(4, [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 3.0), (3, 0, 1.0)])
        assert g.walk_start == 1

    def test_walk_start_star_with_one_heavy_spoke(self):
        # every lightest arc is 1 but the heavy leaf's, 9
        g = build_graph(5, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 9.0), (0, 4, 1.0)])
        assert g.walk_start == 3

    @pytest.mark.parametrize("spec", [
        GraphSpec("sparse", 100, target_edges=300, weight_range=(1, 100), integer_weights=True),
        GraphSpec("complete", 50, weight_range=(0, 100), integer_weights=True),
    ])
    def test_sums_exact_on_integer_specs(self, spec):
        assert generate(spec).sums_exact
        assert not generate(dataclasses.replace(spec, integer_weights=False)).sums_exact

    def test_sums_exact_on_an_integer_dimacs_file(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 3 2\na 1 2 7\na 2 3 0\n")
        assert load_dimacs(path).sums_exact

    def test_sums_exact_needs_every_weight_integral(self):
        edges = [(0, 1, 3.0), (1, 2, 4.0), (2, 3, 1.0)]
        assert build_graph(4, edges).sums_exact
        for k in range(3):
            u, v, w = edges[k]
            one_off = edges[:k] + [(u, v, w + 0.5)] + edges[k + 1:]
            assert not build_graph(4, one_off).sums_exact

    def test_sums_exact_one_vertex(self):
        assert build_graph(1, []).sums_exact

    def test_sums_exact_boundary(self):
        # w_max * (n - 1) must stay below 2**53; on n = 3 that is w_max < 2**52
        assert build_graph(3, [(0, 1, 2.0**52 - 1), (1, 2, 1.0)]).sums_exact
        assert not build_graph(3, [(0, 1, 2.0**52), (1, 2, 1.0)]).sums_exact

    @pytest.mark.parametrize("name", ["indptr", "indices", "weights"])
    def test_csr_arrays_are_read_only(self, path4, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(path4, name)[:] = 0

    def test_graph_is_its_three_arrays(self):
        indptr = np.array([0, 1, 3, 4])
        indices = np.array([1, 0, 2, 1])
        weights = np.array([2.0, 2.0, 5.0, 5.0])
        assert all(a.flags.writeable for a in (indptr, indices, weights))
        g = Graph(indptr, indices, weights)
        assert [f.name for f in dataclasses.fields(Graph)] == ["indptr", "indices", "weights"]
        assert (g.n, g.m) == (indptr.size - 1, indices.size // 2) == (3, 2)
        for a in (indptr, indices, weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("indptr, indices, weights", [
        (np.array([0, 1, 2]), np.array([1]), np.array([2.0, 2.0])),  # arc counts disagree
        ([0, 1, 2], [1, 0], [2.0, 2.0]),  # not arrays
        (np.array([0]), np.array([], dtype=np.int64), np.array([])),  # n = 0
        (np.array([0, 1, 2]), np.array([1, 0]), np.array([[2.0, 2.0]])),  # 2-D weights
    ], ids=["sizes", "lists", "n0", "2d"])
    def test_arrays_that_disagree_rejected(self, indptr, indices, weights):
        with pytest.raises(GraphValidationError, match="^CSR arrays disagree: need 1-D arrays"):
            Graph(indptr, indices, weights)

    def test_graphs_and_matrices_compare_by_identity(self, path4):
        rebuilt = build_graph(4, edge_list(path4))
        assert path4 == path4
        assert path4 != rebuilt
        M = floyd_warshall(path4)
        assert len({path4, rebuilt, M, M}) == 3


class TestGenerate:
    def test_complete_edge_count(self):
        assert generate(GraphSpec(kind="complete", n=4, seed=0)).m == 6

    def test_complete_n1000_edge_count(self):
        # 499500 undirected edges, i.e. 999000 directed arcs; the reference
        # tables for n=1000 complete graphs quote the ~n^2 arc convention.
        g = generate(GraphSpec(kind="complete", n=1000, seed=0))
        assert g.m == 1000 * 999 // 2

    def test_sparse_determinism(self):
        spec = GraphSpec(kind="sparse", n=100, seed=7, target_edges=150)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_sparse_connected_and_edge_budget(self):
        g = generate(GraphSpec(kind="sparse", n=100, seed=7, target_edges=150))
        assert check_connected(g)
        assert 99 <= g.m <= 150

    # The first n each build cannot shape: a sparse build needs n * n < 2**63
    # for from_arcs' arc key, a complete one 8 * n * n < 2**63 bytes for its
    # n x n arrays. Specs only: nothing is generated.
    @pytest.mark.parametrize("kind, largest", [("sparse", 3_037_000_499), ("complete", 2**30 - 1)])
    def test_n_whose_build_cannot_be_shaped_rejected(self, kind, largest):
        assert GraphSpec(kind=kind, n=largest).n == largest
        for n in (largest + 1, 10**20):
            with pytest.raises(GraphValidationError, match=f"^graph refused: n={n} is too large"):
                GraphSpec(kind=kind, n=n)

    def test_sparse_edge_target_defaults_to_2n(self):
        assert GraphSpec(kind="sparse", n=10).edge_target == 20
        assert GraphSpec(kind="sparse", n=10, target_edges=9).edge_target == 9
        a = generate(GraphSpec(kind="sparse", n=30, seed=1))
        b = generate(GraphSpec(kind="sparse", n=30, seed=1, target_edges=60))
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_invalid_specs(self):
        with pytest.raises(GraphValidationError):
            GraphSpec(kind="sparse", n=10, target_edges=5)
        with pytest.raises(GraphValidationError):
            GraphSpec(kind="complete", n=0)
        with pytest.raises(GraphValidationError):
            GraphSpec(kind="complete", n=5, weight_range=(4.0, 2.0))
        with pytest.raises(GraphValidationError):
            GraphSpec(kind="wheel", n=5)
        with pytest.raises(GraphValidationError, match="seed"):
            GraphSpec(kind="complete", n=5, seed=-1)
        for flag in (-1, 2):
            with pytest.raises(GraphValidationError, match="integer_weights"):
                GraphSpec(kind="complete", n=5, integer_weights=flag)

    @pytest.mark.parametrize("weight_range, integer_weights", [
        ((0.0, float("nan")), False),
        ((float("nan"), 1.0), False),
        ((0.0, float("inf")), False),
        ((0.0, 1e30), True),
        ((0.0, float(2**63)), True),
    ])
    def test_weight_range_must_be_drawable(self, weight_range, integer_weights):
        with pytest.raises(GraphValidationError, match="weight range"):
            GraphSpec(kind="complete", n=5, weight_range=weight_range,
                      integer_weights=integer_weights)

    def test_widest_integer_range_generates(self):
        hi = float(2**63 - 1024)  # int(hi) + 1 still fits in int64
        g = generate(GraphSpec(kind="complete", n=5, weight_range=(0.0, hi), integer_weights=True))
        assert g.m == 10 and g.weights.max() <= hi

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(2, 60))
    def test_generate_is_pure(self, seed, n):
        spec = GraphSpec(kind="sparse", n=n, seed=seed, target_edges=2 * n)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 50))
    def test_adjacency_symmetry(self, seed, n):
        g = generate(GraphSpec(kind="sparse", n=n, seed=seed, target_edges=3 * n))
        seen = {}
        for u in range(g.n):
            nbrs, ws = g.neighbors(u)
            for v, w in zip(nbrs.tolist(), ws.tolist()):
                seen[(u, v)] = w
        for (u, v), w in seen.items():
            assert seen[(v, u)] == w


@st.composite
def complete_specs(draw):
    """Complete-graph specs from n = 1, with integer and float weights, equal
    bounds and a lower bound of -0.0."""
    hi = draw(st.sampled_from([0.0, 1.0, 3.0, 100.0, 1e300]))
    lo = draw(st.sampled_from([-0.0, 0.0, hi, hi / 2]))
    return GraphSpec(kind="complete", n=draw(st.integers(1, 40)), seed=draw(st.integers(0, 2**32)),
                     weight_range=(lo, hi), integer_weights=draw(st.booleans()) and hi < 1e18)


class TestCompleteBuild:
    """generate writes complete graphs straight into CSR form; the graph must
    be the one from_arcs builds from the same draws, byte for byte."""

    @staticmethod
    def assert_same_graph(g, h):
        assert (g.n, g.m) == (h.n, h.m)
        for name in ("indptr", "indices", "weights"):
            got, want = getattr(g, name), getattr(h, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable and not want.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(complete_specs())
    def test_same_bytes_as_from_arcs(self, spec):
        n = spec.n
        u, v = np.triu_indices(n, 1)
        w = graph_module._draw_weights(np.random.default_rng(spec.seed), u.size, spec)
        self.assert_same_graph(generate(spec), from_arcs(n, u, v, w))
        signed = np.where(w == 0, -0.0, w)  # stored as +0.0 by both builders
        self.assert_same_graph(graph_module._complete(n, signed), from_arcs(n, u, v, signed))

    def test_weight_rules_are_from_arcs_rules(self):
        for w, match in (([1.0, np.nan, 1.0], "non-finite"), ([1.0, -1.0, 1.0], "negative"),
                         ([1e308, 1.0, 1.0], re.escape("need 4 * n * w_max finite (n=3)"))):
            with pytest.raises(GraphValidationError, match=match):
                graph_module._complete(3, np.array(w))
            with pytest.raises(GraphValidationError, match=match):
                from_arcs(3, *np.triu_indices(3, 1), np.array(w))


@st.composite
def connectivity_graphs(draw):
    """n from 1 to 40: a random forest over a random vertex order, so that
    labels form long chains, plus random arcs. Repeated arcs, self-loops,
    zero weights and vertices of degree 0 all occur."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    order = rng.permutation(n).tolist()
    # each vertex but the first joins an earlier one in the order, mostly
    forest = [(order[i], order[rng.integers(i)], 1.0) for i in range(1, n) if rng.random() < 0.9]
    ends = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(ends, ends, st.sampled_from([0.0, 1.0, 2.5])), max_size=n))
    return build_graph(n, forest + arcs)


def reaches_all(g):
    """Plain breadth-first search from vertex 0 over the CSR arrays."""
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.indices[g.indptr[u]:g.indptr[u + 1]].tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def permuted_paths(n, k, seed):
    """k vertex-disjoint paths over a random permutation of n vertices."""
    parts = np.array_split(np.random.default_rng(seed).permutation(n), k)
    u = np.concatenate([p[:-1] for p in parts])
    v = np.concatenate([p[1:] for p in parts])
    return from_arcs(n, u, v, np.ones(u.size))


class TestConnectivity:
    def test_path_connected(self, path4):
        assert check_connected(path4)

    def test_isolated_vertices(self):
        assert not check_connected(build_graph(2, []))

    def test_single_vertex(self):
        assert check_connected(build_graph(1, []))

    @settings(max_examples=300, deadline=None)
    @given(connectivity_graphs())
    def test_matches_bfs(self, g):
        assert check_connected(g) == reaches_all(g)

    @pytest.mark.parametrize("g", [
        permuted_paths(20_000, 1, seed=1),
        permuted_paths(20_000, 2, seed=2),
        build_graph(4, [(0, 1, 1.0), (1, 3, 1.0), (3, 0, 1.0)]),  # vertex 2 has no arc
        build_graph(4, [(1, 2, 1.0), (2, 3, 1.0)]),  # vertex 0 has no arc
    ], ids=["path", "two-paths", "degree0-inside", "degree0-at-0"])
    def test_fixed_cases_match_bfs(self, g):
        assert check_connected(g) == reaches_all(g)

    def test_rounds_stay_few_on_a_long_path(self):
        # one hook and one shortcut per round would need thousands of rounds
        with mock.patch.object(graph_module, "_hook_round", wraps=graph_module._hook_round) as spy:
            assert check_connected(permuted_paths(30_000, 1, seed=3))
        assert spy.call_count <= 40

    @settings(max_examples=150, deadline=None)
    @given(connectivity_graphs())
    def test_agrees_with_the_searches(self, g):
        """The stand-alone check, sssp from vertex 0 and floyd_warshall see
        the same graphs as disconnected."""
        def raises(search):
            try:
                search(g)
            except DisconnectedGraphError:
                return True
            return False

        disconnected = not check_connected(g)
        assert raises(lambda g: sssp(g, 0)) == disconnected
        assert raises(floyd_warshall) == disconnected
