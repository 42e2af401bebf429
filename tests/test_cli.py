import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmetrics import cli as cli_module
from graphmetrics.cli import main, parse_gen_spec
from graphmetrics.graph import GraphValidationError, load_dimacs, write_dimacs
from graphmetrics.oracle import choose_baseline
from graphmetrics.radius import find_radius
from graphmetrics.report import CSV_COLUMNS

from conftest import build_graph, weight_limit

PATH_FIXTURE = (
    "p sp 4 6\n"
    "a 1 2 1\na 2 1 1\n"
    "a 2 3 1\na 3 2 1\n"
    "a 3 4 1\na 4 3 1\n"
)

DISCONNECTED_FIXTURE = "p sp 4 2\na 1 2 1\na 3 4 1\n"

# Two disjoint triangles: average degree 2 > n/4, so p2 builds by Floyd-Warshall.
TWO_TRIANGLES = "p sp 6 6\na 1 2 1\na 2 3 1\na 1 3 1\na 4 5 1\na 5 6 1\na 4 6 1\n"

# Every vertex has an arc, and vertex 3's lightest arc is the heaviest, so
# the on-demand walk starts there (internal id 2), not at vertex 1.
HEAVY_SECOND_PART = "p sp 4 2\na 1 2 1\na 3 4 5\n"

# (file text, matrix builder it gets, internal id of the smallest vertex 0 cannot reach)
DISCONNECTED_INPUTS = [
    (DISCONNECTED_FIXTURE, "dijkstra", 2), (TWO_TRIANGLES, "floyd", 3),
    (HEAVY_SECOND_PART, "dijkstra", 2),
]

# One vertex above the matrix cap and no arcs: disconnected, but every command
# that builds a matrix refuses it first.
ABOVE_CAP = "p sp 20001 0\n"
CAP_REFUSAL = "distance matrix refused: n=20001 exceeds cap 20000"


def exhausted(path):
    """A loader that fails as an allocation does: a MemoryError with no text."""
    raise MemoryError()


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path.gr"
    p.write_text(PATH_FIXTURE)
    return str(p)


class TestGenSpecParsing:
    def test_complete(self):
        spec = parse_gen_spec("complete:1000:seed=1")
        assert (spec.kind, spec.n, spec.seed) == ("complete", 1000, 1)

    def test_sparse_with_target(self):
        spec = parse_gen_spec("sparse:100:150:seed=7")
        assert spec.target_edges == 150

    def test_sparse_connected_alias(self):
        assert parse_gen_spec("sparse-connected:10:seed=0").kind == "sparse"

    def test_weight_options(self):
        spec = parse_gen_spec("complete:8:seed=2:wlo=1:whi=5:int=1")
        assert spec.weight_range == (1.0, 5.0)
        assert spec.integer_weights

    def test_bad_specs(self):
        for text in ["complete", "complete:x", "complete:5:bogus=1",
                     "complete:5:seed=-1", "complete:5:int=-1", "complete:5:int=2"]:
            with pytest.raises(GraphValidationError):
                parse_gen_spec(text)

    @pytest.mark.parametrize("text, field", [
        ("complete:5:seed=x", "seed 'x'"),
        ("sparse:10:abc", "edge count 'abc'"),
        ("complete:5:wlo=x", "wlo 'x'"),
        ("complete:5:int=x", "int 'x'"),
    ])
    def test_non_numeric_field_is_named(self, capsys, text, field):
        assert main(["metrics", "--gen", text]) == 2
        assert f"bad {field} in generator spec" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("complete:1_0:seed=3", "bad vertex count '1_0'"),
        ("complete:10:seed=+3", "bad seed '+3'"),
        ("complete:\u0661\u0660", "bad vertex count '\u0661\u0660'"),  # Arabic-Indic 10
        ("complete: 10", "bad vertex count ' 10'"),
        ("sparse:10:2_0", "bad edge count '2_0'"),
        ("complete:5:wlo=+1", "bad wlo '+1'"),
        ("complete:5:whi=1e+3", "bad whi '1e+3'"),
        ("complete:5:int=1\t", "bad int '1\\t'"),
        ("complete:10:seed=1:seed=2", "repeated generator option 'seed'"),
        ("sparse:10:wlo=1:whi=5:wlo=2", "repeated generator option 'wlo'"),
        ("complete:10:20", "complete graph takes no edge count, got '20'"),
    ])
    def test_field_dimacs_rejects_is_named(self, capsys, text, message):
        """Numbers follow the DIMACS numeral rule: ASCII, without "_", "+"
        or spaces; each option is given once and complete takes no m."""
        assert main(["metrics", "--gen", text]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("complete:5:seed=-1", "seed must be non-negative, got -1"),
        ("complete:5:int=-1", "integer_weights (int) must be 0 or 1, got -1"),
        ("sparse:9:int=2", "integer_weights (int) must be 0 or 1, got 2"),
    ])
    @pytest.mark.parametrize("command", [["metrics"], ["oracle"], ["gen", "--output", "g.gr"]])
    def test_field_out_of_range_is_named(
        self, tmp_path, monkeypatch, capsys, command, text, message
    ):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--gen", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "g.gr").exists()

    @pytest.mark.parametrize("text, weight_range", [
        ("complete:5:whi=1e30:int=1", "[0.0, 1e+30]"),
        ("complete:5:whi=inf:int=1", "[0.0, inf]"),
        ("complete:5:whi=nan", "[0.0, nan]"),
        ("complete:5:wlo=nan", "[nan, 100.0]"),
    ])
    def test_undrawable_weight_range_is_named(self, capsys, text, weight_range):
        with pytest.raises(GraphValidationError):
            parse_gen_spec(text)
        assert main(["metrics", "--gen", text]) == 2
        assert f"weight range {weight_range} needs" in capsys.readouterr().err

    def test_option_without_value_is_named(self, capsys):
        assert main(["metrics", "--gen", "complete:5:seed=1:foo"]) == 2
        assert capsys.readouterr().err == "error: bad generator option 'foo'\n"


class TestMetricsCommand:
    def test_path_fixture_values(self, path_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["metrics", "--input", path_file, "--mode", "p1",
                   "--target", "both", "--json", str(out)])
        assert rc == 0
        reports = json.loads(out.read_text())
        by_algo = {r["algo"]: r for r in reports}
        assert by_algo["R1"]["radius"] == 2.0
        assert by_algo["R1"]["center"] == 2  # original 1-based id of vertex 1
        assert by_algo["D1"]["diameter"] == 3.0
        assert sorted(by_algo["D1"]["pair"]) == [1, 4]

    def test_p2_mode_matches_p1(self, path_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["metrics", "--input", path_file, "--mode", "p2",
                     "--json", str(out)]) == 0
        by_algo = {r["algo"]: r for r in json.loads(out.read_text())}
        assert by_algo["R2"]["radius"] == 2.0
        assert by_algo["D2"]["diameter"] == 3.0
        assert by_algo["R2"]["sssp_count"] == 0
        assert "matrix_build_ms" in by_algo["R2"]

    def test_generated_input(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["metrics", "--gen", "complete:50:seed=1", "--target", "radius",
                   "--json", str(out)])
        assert rc == 0
        (report,) = json.loads(out.read_text())
        assert report["seed"] == 1
        assert 0.0 <= report["sssp_share"] <= 1.0

    def test_disconnected_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "two.gr"
        p.write_text(DISCONNECTED_FIXTURE)
        assert main(["metrics", "--input", str(p)]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.gr"
        p.write_text("p sp 2 1\na 1 zebra 1\n")
        assert main(["metrics", "--input", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_is_named(self, tmp_path, capsys, weight):
        p = tmp_path / "w.gr"
        p.write_text(f"p sp 2 1\na 1 2 {weight}\n")
        assert main(["metrics", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line 2: non-finite weight" in err
        assert "disconnected" not in err

    def test_overflowing_path_sum_is_named(self, tmp_path, capsys):
        p = tmp_path / "big.gr"
        p.write_text("p sp 3 2\na 1 2 1e308\na 2 3 1e308\n")
        assert main(["metrics", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert "too large" in err
        assert "disconnected" not in err

    def test_overflowing_complete_weight_is_named(self, capsys):
        assert main(["metrics", "--gen", "complete:50:seed=0:wlo=0:whi=1e308:int=0"]) == 2
        assert capsys.readouterr().err == (
            "error: edge weight 9.995013522570268e+307 too large: "
            "the searches need 4 * n * w_max finite (n=50)\n"
        )

    def test_weight_above_the_sum_limit_is_refused(self, tmp_path, capsys):
        # The path 2-1-3 sums to 1.6e308, which is finite, but 4 * n * 8e307
        # is not: some sum a search forms could overflow.
        p = tmp_path / "big.gr"
        p.write_text("p sp 3 2\na 1 2 8e307\na 1 3 8e307\n")
        refusal = "edge weight 8e+307 too large: the searches need 4 * n * w_max finite (n=3)"
        for argv in (["metrics", "--mode", "p1"], ["metrics", "--mode", "p2"], ["oracle"]):
            assert main(argv + ["--input", str(p)]) == 2
            assert capsys.readouterr() == ("", f"error: {refusal}\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(p), "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            assert [row["errors"] for row in csv.DictReader(fh)] == [refusal]

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_largest_accepted_weight_is_silent(self, tmp_path, mode):
        w = weight_limit(3)
        p = tmp_path / "big.gr"
        write_dimacs(build_graph(3, [(0, 1, w), (0, 2, w)]), p)
        if mode == "p2":
            assert choose_baseline(load_dimacs(p)) == "floyd"
        diameters = []
        for argv in (["metrics", "--mode", mode], ["oracle"]):
            report = tmp_path / "report.json"
            done = subprocess.run(
                [sys.executable, "-m", "graphmetrics", *argv, "--input", str(p),
                 "--json", str(report)],
                env=src_env(), capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")  # no numpy RuntimeWarning
            diameters += [r["diameter"] for r in json.loads(report.read_text()) if "diameter" in r]
        assert diameters == [2 * w, 2 * w]

    def test_arc_count_mismatch_is_named(self, tmp_path, capsys):
        p = tmp_path / "short.gr"
        p.write_text("".join(PATH_FIXTURE.splitlines(keepends=True)[:5]))  # 4 of 6 arcs
        assert main(["metrics", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert "declares 6 arcs but the file has 4" in err
        assert "disconnected" not in err

    @pytest.mark.parametrize("text", ["", "c only\n", "c only"])
    def test_missing_header_is_named(self, tmp_path, capsys, text):
        p = tmp_path / "headless.gr"
        p.write_text(text)
        assert main(["metrics", "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: missing 'p sp n m' header\n"

    def test_negative_arc_count_is_rejected(self, tmp_path, capsys):
        p = tmp_path / "neg.gr"
        p.write_text(PATH_FIXTURE.replace("p sp 4 6", "p sp 4 -3"))
        assert main(["metrics", "--input", str(p)]) == 2
        assert "arc count must be >= 0" in capsys.readouterr().err

    def test_byte_not_utf8_in_data_line_is_named(self, tmp_path, capsys):
        p = tmp_path / "bad.gr"
        p.write_bytes(b"p sp 2 1\na 1 2 \xff\n")
        assert main(["metrics", "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: line 2: byte 0xff is not UTF-8 text\n"

    def test_byte_not_utf8_in_comment_is_ignored(self, tmp_path, capsys):
        p = tmp_path / "latin1.gr"
        p.write_bytes(b"c caf\xe9\n" + PATH_FIXTURE.encode())
        assert main(["metrics", "--input", str(p)]) == 0
        assert "radius=2 center=2" in capsys.readouterr().out

    def test_memory_guard_on_p2(self, tmp_path, capsys):
        p = tmp_path / "big.gr"
        p.write_text(ABOVE_CAP)
        for argv in (["metrics", "--mode", "p2"], ["oracle"]):
            assert main(argv + ["--input", str(p)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {CAP_REFUSAL}\n"  # not the disconnection

    def test_memory_error_without_text_is_worded(self, monkeypatch, path_file, capsys):
        monkeypatch.setattr(cli_module, "load_dimacs", exhausted)
        assert main(["metrics", "--input", path_file]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_diameter_target(self, monkeypatch, path_file, tmp_path, mode):
        timed = cli_module._timed
        radius_s = []

        def recording_timed(fn, *args):
            out, seconds = timed(fn, *args)
            if fn is cli_module.find_radius:
                radius_s.append(seconds)
            return out, seconds

        monkeypatch.setattr(cli_module, "_timed", recording_timed)
        out = tmp_path / "rep.json"
        assert main(["metrics", "--input", path_file, "--mode", mode,
                     "--target", "diameter", "--json", str(out)]) == 0
        (report,) = json.loads(out.read_text())  # D alone, no R report
        assert report["algo"] == "D" + mode[1]
        assert report["diameter"] == 3.0
        assert sorted(report["pair"]) == [1, 4]
        (seconds,) = radius_s
        assert report["elapsed_ms"] >= seconds * 1000.0  # D's time includes R's


NON_NUMERIC = st.sampled_from(["x", "0x2", "1,5", "--1", "2e"])
# Digits of other scripts that int() and float() read as 0-9, and spaces
# that str.split() splits on; DIMACS numbers and separators are ASCII.
OTHER_DIGITS = st.sampled_from([0x0660, 0x0966, 0xFF10])  # Arabic-Indic, Devanagari, fullwidth
OTHER_SPACES = st.sampled_from(["\u00a0", "\u2003", "\u3000"])


@st.composite
def corrupt_dimacs(draw):
    """(file bytes, 1-based number of the changed line, expected message)."""
    n = draw(st.integers(2, 8))
    lines = ["c a valid file", f"p sp {n} {n - 1}"] + [
        f"a {draw(st.integers(1, v - 1))} {v} {draw(st.integers(0, 9))}" for v in range(2, n + 1)
    ]
    arc = draw(st.integers(2, len(lines) - 1))  # 0-based index of an arc line
    kind = draw(st.sampled_from([
        "field count", "non-numeric", "id out of range", "negative weight",
        "nan weight", "infinite weight", "unknown line type", "duplicate header",
        "arc before header", "not utf-8", "underscore", "other digits", "other space",
        "plus sign",
    ]))
    if kind == "arc before header":
        i = 0
    elif kind in ("field count", "non-numeric", "unknown line type", "not utf-8",
                  "underscore", "other digits", "other space", "plus sign"):
        i = draw(st.sampled_from([1, arc]))  # the header or an arc line
    else:
        i = arc
    parts = lines[i].split()
    header = parts[0] == "p"
    if kind == "field count":
        parts = parts[:-1] if draw(st.booleans()) else parts + [draw(st.sampled_from(["1", "x"]))]
        fault = "malformed header" if header else "malformed arc"
    elif kind == "non-numeric":
        parts[draw(st.integers(2, 3) if header else st.integers(1, 3))] = draw(NON_NUMERIC)
        fault = "non-integer header fields" if header else "non-numeric arc fields"
    elif kind in ("underscore", "other digits", "other space", "plus sign"):
        # int(), float() and split() read the line as before, so only the check rejects it
        at = draw(st.integers(2, 3) if header else st.integers(1, 3))
        if kind == "underscore":
            parts[at] = "0_" + parts[at]
        elif kind == "other digits":
            zero = draw(OTHER_DIGITS)
            parts[at] = "".join(chr(zero + int(d)) for d in parts[at])
        elif kind == "plus sign":
            # a sign on any field, or on a weight's exponent: "5e+0"
            exponent = not header and at == 3 and draw(st.booleans())
            parts[at] = parts[at] + "e+0" if exponent else "+" + parts[at]
        fault = "non-integer header fields" if header else "non-numeric arc fields"
    elif kind == "id out of range":
        bad = draw(st.one_of(st.integers(max_value=0), st.integers(min_value=n + 1)))
        parts[draw(st.integers(1, 2))] = str(bad)
        fault = f"vertex id out of range [1, {n}]"
    elif kind == "negative weight":
        w = draw(st.floats(max_value=0.0, exclude_max=True, allow_nan=False))
        parts[3] = repr(w).replace("e+", "e")  # "-1e+16" would be a plus sign fault
        fault = f"negative weight {w}"
    elif kind == "nan weight":
        parts[3] = draw(st.sampled_from(["nan", "NaN", "-nan"]))
        fault = "non-finite weight nan"
    elif kind == "infinite weight":
        parts[3] = draw(st.sampled_from(["inf", "Infinity", "1e999"]))
        fault = "non-finite weight inf"
    elif kind == "unknown line type":
        parts[0] = draw(st.text("abdefpqxyzAC01#%*", min_size=1, max_size=3).filter(
            lambda t: t not in ("a", "p") and not t.startswith("c")))
        fault = f"unknown line type {parts[0]!r}"
    elif kind == "duplicate header":
        parts = lines[1].split()
        fault = "duplicate problem line"
    elif kind == "arc before header":
        parts = lines[2].split()
        fault = "arc before 'p sp' header"
    data = [line.encode() for line in lines]
    data[i] = (draw(OTHER_SPACES) if kind == "other space" else " ").join(parts).encode()
    if kind == "not utf-8":
        byte = draw(st.integers(0x80, 0xFF))
        at = draw(st.integers(0, len(data[i])))
        data[i] = data[i][:at] + bytes([byte]) + data[i][at:]
        fault = f"byte 0x{byte:02x} is not UTF-8 text"
    return b"\n".join(data) + b"\n", i + 1, fault


class TestCorruptDimacs:
    @settings(max_examples=300, deadline=None)
    @given(corrupt_dimacs())
    def test_one_bad_line_is_named(self, tmp_path_factory, case):
        data, lineno, fault = case
        path = tmp_path_factory.mktemp("corrupt") / "g.gr"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["metrics", "--input", str(path)])
        assert code == 2
        assert err.getvalue().startswith(f"error: line {lineno}: {fault}"), err.getvalue()

    def test_unchanged_file_is_valid(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("c a valid file\np sp 3 2\na 1 2 0\na 1 3 9\n")
        assert main(["metrics", "--input", str(path)]) == 0


class TestOracleCommand:
    def test_unit_complete(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["oracle", "--gen", "complete:4:seed=0:wlo=1:whi=1",
                   "--json", str(out)])
        assert rc == 0
        by_algo = {r["algo"]: r for r in json.loads(out.read_text())}
        assert by_algo["RC1"]["radius"] == 1.0
        assert by_algo["DC1"]["diameter"] == 1.0
        assert "centers: [1, 2, 3, 4]" in capsys.readouterr().out

    def test_path_centers(self, path_file, capsys):
        assert main(["oracle", "--input", path_file]) == 0
        assert "centers: [2, 3]" in capsys.readouterr().out

    def test_peripheral_pair_below_the_diagonal_is_reported(self, capsys):
        # This float graph's Dijkstra-built matrix holds its maximum only as
        # d(25, 15), in DIMACS ids; the pair is still found, as two distinct
        # vertices.
        assert main(["oracle", "--gen", "sparse:100:300:seed=6:wlo=0:whi=100:int=0"]) == 0
        out = capsys.readouterr().out
        a, b = map(int, re.search(r"DC1: .* pair=\((\d+), (\d+)\)", out).groups())
        assert a != b
        assert f"peripheral pairs: [({a}, {b})]" in out

    def test_single_vertex_pair(self, capsys):
        assert main(["oracle", "--gen", "complete:1"]) == 0
        out = capsys.readouterr().out
        assert "DC1: " in out and "pair=(1, 1)" in out
        assert "peripheral pairs: [(1, 1)]" in out

    def test_disconnected_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "two.gr"
        p.write_text(DISCONNECTED_FIXTURE)
        assert main(["oracle", "--input", str(p)]) == 2
        assert "unreachable" in capsys.readouterr().err


class TestBenchCommand:
    def test_single_fixture_csv(self, path_file, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--input", path_file, "--repeats", "1", "--csv", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algo"] for r in rows] == ["RC1", "R1", "DC1", "D1"]
        r1 = next(r for r in rows if r["algo"] == "R1")
        assert float(r1["value"]) == 2.0
        assert float(r1["sssp_share"]) <= 1.0
        assert r1["errors"] == ""

    def test_csv_to_stdout(self, capsys):
        assert main(["bench", "--gen", "complete:5:seed=0"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == CSV_COLUMNS
        assert [r[header.index("algo")] for r in rows] == ["RC1", "R1", "DC1", "D1"]

    def test_p2_suite(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--gen", "complete:40:seed=3", "--mode", "p2",
                   "--repeats", "2", "--csv", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algo"] for r in rows] == ["RC2", "R2", "DC2", "D2"]
        assert float(rows[1]["value"]) == float(rows[0]["value"])

    def test_byte_not_utf8_recorded_per_input(self, tmp_path):
        bad = tmp_path / "bad.gr"
        bad.write_bytes(b"p sp 2 1\na 1 2 \xff\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(bad), "--gen", "complete:10:seed=0",
                     "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["errors"] == "line 2: byte 0xff is not UTF-8 text"
        assert [r["algo"] for r in rows[1:]] == ["RC1", "R1", "DC1", "D1"]

    def test_failures_recorded_per_input(self, tmp_path):
        missing = str(tmp_path / "nope.gr")
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--input", missing, "--gen", "complete:10:seed=0",
                   "--csv", str(out)])
        assert rc == 0  # suite continues past per-input failures
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["errors"] != ""
        assert [r["algo"] for r in rows[1:]] == ["RC1", "R1", "DC1", "D1"]

    def test_bad_generator_field_recorded_per_input(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--gen", "complete:5:seed=-1", "--gen", "complete:10:seed=0",
                     "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["errors"] == "seed must be non-negative, got -1"
        assert [r["algo"] for r in rows[1:]] == ["RC1", "R1", "DC1", "D1"]

    @pytest.mark.parametrize("mode, warm_up", [("p1", 0), ("p2", 1)])
    def test_radius_search_runs_once_per_repeat(self, monkeypatch, tmp_path, mode, warm_up):
        calls = []

        def counting_find_radius(provider):
            calls.append(provider)
            return find_radius(provider)

        monkeypatch.setattr(cli_module, "find_radius", counting_find_radius)
        assert main(["bench", "--gen", "sparse:30:seed=2", "--mode", mode, "--repeats", "3",
                     "--csv", str(tmp_path / "bench.csv")]) == 0
        assert len(calls) == 3 + warm_up
        assert len({id(p) for p in calls}) == len(calls)  # each on a fresh provider

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_matrix_cap_recorded_in_both_modes(self, tmp_path, mode):
        p = tmp_path / "big.gr"
        p.write_text(ABOVE_CAP)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(p), "--mode", mode, "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["errors"] == CAP_REFUSAL  # not "vertex 2 is unreachable from vertex 1"

    def test_memory_error_without_text_recorded(self, monkeypatch, path_file, tmp_path):
        monkeypatch.setattr(cli_module, "load_dimacs", exhausted)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", path_file, "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["errors"] == "out of memory"

    def test_no_inputs_is_an_error(self, capsys):
        assert main(["bench"]) == 2

    def test_repeats_below_one_is_an_error(self, capsys):
        assert main(["bench", "--gen", "complete:5:seed=0", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err


# Sizes no build can shape, each refused before numpy allocates anything:
# files whose n fails from_arcs' rule n * n < 2**63, and generator specs that
# fail GraphSpec's rule for their kind.
OVERSIZED_FILES = ["p sp 100000000000000000000 0\n", "p sp 2000000000000000000 0\n"]
OVERSIZED_SPECS = [
    "sparse:2000000000000000000", "sparse:100000000000000000000",
    "complete:100000000000", "complete:3037000500",
]


class TestOversizedInput:
    """An n too large to build exits 2 with one line naming it, not with a
    numpy traceback, and bench answers the inputs after it."""

    @pytest.mark.parametrize("text", OVERSIZED_FILES)
    @pytest.mark.parametrize("command", ["metrics", "oracle"])
    def test_file_is_refused(self, tmp_path, capsys, command, text):
        p = tmp_path / "big.gr"
        p.write_text(text)
        assert main([command, "--input", str(p)]) == 2
        n = text.split()[2]
        assert capsys.readouterr() == (
            "", f"error: graph refused: n={n} is too large (n * n must be below 2**63)\n"
        )

    @pytest.mark.parametrize("spec", OVERSIZED_SPECS)
    @pytest.mark.parametrize("command", ["metrics", "oracle", "gen"])
    def test_spec_is_refused(self, tmp_path, capsys, command, spec):
        output = tmp_path / "x.gr"
        argv = [command, "--gen", spec] + (["--output", str(output)] if command == "gen" else [])
        assert main(argv) == 2
        kind, n = spec.split(":")
        assert capsys.readouterr() == (
            "", f"error: graph refused: n={n} is too large for a {kind} graph\n"
        )
        assert not output.exists()

    def test_bench_answers_the_next_input(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--gen", "complete:3037000500", "--gen", "complete:5",
                     "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["errors"] == "graph refused: n=3037000500 is too large for a complete graph"
        assert [r["algo"] for r in rows[1:]] == ["RC1", "R1", "DC1", "D1"]


class TestDisconnected:
    """Each command reports a disconnected graph the same way, whichever SSSP
    or matrix build meets it first: the smallest internal id vertex 0 cannot
    reach, named in DIMACS ids (id + 1) like every report, exit 2 and no
    output."""

    @pytest.mark.parametrize("text, builder, vertex", DISCONNECTED_INPUTS)
    @pytest.mark.parametrize("argv", [
        ["metrics", "--mode", "p1"], ["metrics", "--mode", "p2"], ["oracle"],
    ])
    def test_named_on_stderr(self, tmp_path, capsys, argv, text, builder, vertex):
        p = tmp_path / "split.gr"
        p.write_text(text)
        assert choose_baseline(load_dimacs(p)) == builder
        assert main(argv + ["--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: graph is disconnected; vertex {vertex + 1} is unreachable from vertex 1\n"

    @pytest.mark.parametrize("text, builder, vertex", DISCONNECTED_INPUTS)
    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_named_in_bench_errors(self, tmp_path, mode, text, builder, vertex):
        p = tmp_path / "split.gr"
        p.write_text(text)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(p), "--mode", mode, "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["errors"] == f"vertex {vertex + 1} is unreachable from vertex 1"


class TestGenCommand:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "gen.gr"
        rc = main(["gen", "--gen", "sparse:30:60:seed=9", "--output", str(out)])
        assert rc == 0
        g = load_dimacs(out)
        assert g.n == 30
        assert 29 <= g.m <= 60


def test_json_report_roundtrip(path_file, tmp_path):
    out = tmp_path / "rep.json"
    main(["metrics", "--input", path_file, "--json", str(out)])
    reports = json.loads(out.read_text())
    redumped = json.loads(json.dumps(reports))
    assert redumped == reports
    for r in reports:
        assert isinstance(r["radius" if r["algo"].startswith("R") else "diameter"], float)


def src_env():
    """os.environ with the repository's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_runs_as_a_module(tmp_path):
    out = tmp_path / "g.gr"
    done = subprocess.run(
        [sys.executable, "-m", "graphmetrics", "gen", "--gen", "complete:4:seed=0",
         "--output", str(out)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert load_dimacs(out).n == 4


def test_commands_import_numpy_only(tmp_path):
    """scipy more than doubles a numpy-only process's memory, so no command
    may load it, not even indirectly."""
    code = (
        "import sys\n"
        "from graphmetrics.cli import main\n"
        "for argv in (\n"
        "    ['metrics', '--gen', 'sparse:30:seed=1', '--mode', 'p1'],\n"
        "    ['metrics', '--gen', 'sparse:30:seed=1', '--mode', 'p2'],\n"
        "    ['metrics', '--gen', 'complete:20:seed=1', '--mode', 'p2'],\n"
        "    ['oracle', '--gen', 'sparse:30:seed=1'],\n"
        "    ['bench', '--gen', 'sparse:30:seed=1', '--mode', 'p1'],\n"
        "    ['bench', '--gen', 'sparse:30:seed=1', '--mode', 'p2'],\n"
        f"    ['gen', '--gen', 'sparse:30:seed=1', '--output', {str(tmp_path / 'g.gr')!r}],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
