import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles as q
from quandles import knots
from quandles.cli import main
from quandles.cocycles import CoeffGroup, ConstantCocycle, cocycle_to_json
from quandles.errors import InconsistentSigns, MalformedCode
from quandles.knots import GAUSS_CODES
from quandles.pi1 import MAX_PI1_RANK
from conftest import beta_a_table, refuse_table, transposition_quandle


@pytest.fixture
def table_files(tmp_path, r3, q4):
    paths = {}
    for name, quandle in [("r3", r3), ("q4", q4)]:
        path = tmp_path / f"{name}.txt"
        path.write_text(q.quandle_to_text(quandle))
        paths[name] = str(path)
    proj = tmp_path / "p3.txt"
    proj.write_text(q.quandle_to_text(q.projection_quandle(3)))
    paths["p3"] = str(proj)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n1 1\n")
    paths["bad"] = str(bad)
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a table\n")
    paths["garbage"] = str(garbage)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_r3(capsys, table_files):
    code, out, _ = run(capsys, "check", table_files["r3"])
    assert code == 0
    assert "latin: yes" in out
    assert "connected: yes" in out
    assert "doubly transitive: yes" in out
    assert "lmlt order: 6" in out
    assert "semiregular: s=2" in out


def test_check_projection_not_connected(capsys, table_files):
    code, out, _ = run(capsys, "check", table_files["p3"])
    assert code == 0
    assert "connected: no" in out


def test_check_not_a_quandle(capsys, table_files):
    code, _, err = run(capsys, "check", table_files["bad"])
    assert code == 1
    assert "not a quandle" in err


def test_check_parse_error(capsys, table_files):
    code, _, err = run(capsys, "check", table_files["garbage"])
    assert code == 2


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/asdf.txt")
    assert code == 2


def test_check_json_deterministic(capsys, table_files):
    code, out1, _ = run(capsys, "--json", "check", table_files["r3"])
    assert code == 0
    code, out2, _ = run(capsys, "--json", "check", table_files["r3"])
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["lmlt_order"] == 6
    assert payload["semiregular_length"] == 2


def test_check_sym10_transpositions_exact_order(capsys, tmp_path):
    # |LMlt| = 10! = 3628800, beyond any element list the check could afford
    path = tmp_path / "t10.txt"
    path.write_text(q.quandle_to_text(transposition_quandle(10)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "lmlt order: 3628800" in out.splitlines()
    assert "doubly transitive: no" in out.splitlines()


def test_closure_cap_is_a_usage_error(capsys, table_files):
    code, out, err = run(capsys, "check", table_files["r3"], "--closure-cap", "10")
    assert code == 2
    assert out == ""
    assert "--closure-cap" in err


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch, table_files):
    # main builds its parser once per process; a usage error followed by a
    # valid check must print what each prints when run alone
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["check", "--closure-cap", "5", table_files["r3"]], ["check", table_files["r3"]]]
    in_process = [run(capsys, *argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(q.__file__)))
    alone = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "quandles", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == alone
    assert [code for code, _, _ in alone] == [2, 0]


def test_h2c_command(capsys, table_files):
    code, out, _ = run(capsys, "h2c", table_files["r3"], "Sym2")
    assert code == 0
    assert "classes: 1" in out
    code, out, _ = run(capsys, "h2c", table_files["q4"], "Z2")
    assert code == 0
    assert "classes: 2" in out
    code, out, _ = run(capsys, "h2c", table_files["q4"], "Z3")
    assert "classes: 1" in out
    code, out, _ = run(capsys, "--json", "h2c", table_files["q4"], "Z 2 x Z 2")
    payload = json.loads(out)
    assert payload["classes"] == 4


def test_h2c_byte_identical_reruns(capsys, table_files):
    code, out1, _ = run(capsys, "--json", "h2c", table_files["q4"], "Sym3")
    code, out2, _ = run(capsys, "--json", "h2c", table_files["q4"], "Sym3")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["classes"] == 2
    assert len(payload["representatives"]) == 2


def test_h2c_not_latin(capsys, table_files):
    code, _, err = run(capsys, "h2c", table_files["p3"], "Sym2")
    assert code == 1
    assert "NotLatin" in err


def test_h2c_budget(capsys, table_files):
    code, _, err = run(capsys, "h2c", table_files["q4"], "Z2", "--budget", "0")
    assert code == 3
    # q4 over Sym(3) enters 5 search states: the least passing budget is 5
    code, out, _ = run(capsys, "h2c", table_files["q4"], "Sym(3)", "--budget", "5")
    assert code == 0 and "classes: 2" in out
    code, out, err = run(capsys, "h2c", table_files["q4"], "Sym(3)", "--budget", "4")
    assert code == 3 and out == "" and "budget exceeded" in err
    # coefficient groups above the order cap are refused before they are built
    for coeff in ("Sym(11)", "Z 100000 x Z 100000"):
        code, _, err = run(capsys, "h2c", table_files["r3"], coeff)
        assert code == 3
        assert "order cap" in err


def test_pi1_command(capsys):
    code, out, _ = run(capsys, "pi1", "Z2xZ2", "[[1,1],[1,0]]")
    assert code == 0
    assert "pi1: Z 2" in out
    assert "|G(x)G|: 16" in out
    assert "|I|: 8" in out
    code, out, _ = run(capsys, "pi1", "Z9", "[[2]]")
    assert code == 0
    assert "pi1: trivial" in out
    code, _, err = run(capsys, "pi1", "Z4", "[[3]]")
    assert code == 1
    assert "not connected" in err
    code, _, err = run(capsys, "pi1", "Z4", "[[2]]")
    assert code == 1
    assert "NotAutomorphism" in err
    code, _, _ = run(capsys, "pi1", "Z9", "[[2]]", "--subgroup-cap", "10")
    assert code == 2


@pytest.mark.parametrize("matrix", ["5", "null", "[1]", "[[null]]", "[[2.5]]"])
def test_pi1_matrix_must_be_integer_rows(capsys, matrix):
    # [[2.5]] was truncated to [[2]] and reported as a success
    code, out, err = run(capsys, "pi1", "Z 3", matrix)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: matrix must be a list of lists of integers")


@pytest.mark.parametrize("group, matrix", [
    ("Z 5", "[[2],[3]]"), ("Z 5", "[]"), ("Z 5", "[[2,3]]"), ("Z 1", "[[]]"),
    ("Z 3 x Z 3", "[[2,0]]"),
])
def test_pi1_matrix_shape_checked(capsys, group, matrix):
    # [[2],[3]] over Z 5 lost its second row and was reported simply connected
    code, out, err = run(capsys, "pi1", group, matrix)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: matrix must be")


def test_pi1_needs_no_table(capsys):
    # Q(Z_1001, 3) is connected and cyclic, so simply connected; its
    # million-entry table is never built
    start = time.perf_counter()
    code, out, _ = run(capsys, "pi1", "Z 1001", "[[3]]")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "pi1: trivial" in out


def test_pi1_command_builds_no_table(capsys, monkeypatch):
    cases = [
        (["pi1", "Z 2 x Z 2", "[[1,1],[1,0]]"], 0, "pi1: Z 2\n"),
        (["pi1", "Z 3 x Z 3", "[[2,0],[0,2]]"], 0, "pi1: Z 3\n"),
        (["pi1", "Z 4 x Z 4", "[[0,3],[1,3]]"], 0, "pi1: Z 4\n"),
        (["pi1", "Z 49", "[[5]]"], 0, "pi1: trivial\n"),
        (["--json", "pi1", "Z 2 x Z 2", "[[1,1],[1,0]]"], 0, '"quandle_size": 4'),
        (["pi1", "Z 4", "[[3]]"], 1, "not connected"),
    ]
    for argv, code, text in cases:
        expected = run(capsys, *argv)
        assert expected[0] == code and text in expected[1] + expected[2], argv
        with monkeypatch.context() as patch:
            patch.setattr(q.FinAbGroup, "cayley_table", refuse_table)
            assert run(capsys, *argv) == expected, argv


def test_pi1_rank_limit(capsys):
    k = MAX_PI1_RANK + 1
    group = " x ".join(["Z 3"] * k)
    minus_one = json.dumps([[2 * (i == j) for j in range(k)] for i in range(k)])
    start = time.perf_counter()
    code, _, err = run(capsys, "pi1", group, minus_one)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "budget exceeded" in err


def test_cover_verify(capsys, tmp_path, table_files, r3):
    s2 = CoeffGroup.symmetric(2)
    ext = q.extend(r3, q.trivial_cocycle(r3, s2))
    total_path = tmp_path / "total.txt"
    total_path.write_text(q.quandle_to_text(ext.total))
    code, out, _ = run(
        capsys,
        "cover",
        "verify",
        "--base",
        table_files["r3"],
        "--total",
        str(total_path),
        "--map",
        json.dumps(list(ext.projection)),
    )
    assert code == 0
    assert "covering: yes" in out
    # folding the square of R_3 over its first coordinate is not a covering
    table = [
        [r3.op(a // 3, b // 3) * 3 + r3.op(a % 3, b % 3) for b in range(9)]
        for a in range(9)
    ]
    square_path = tmp_path / "square.txt"
    square_path.write_text(q.quandle_to_text(q.Quandle(table)))
    code, out, _ = run(
        capsys,
        "cover",
        "verify",
        "--base",
        table_files["r3"],
        "--total",
        str(square_path),
        "--map",
        json.dumps([i // 3 for i in range(9)]),
    )
    assert code == 1
    assert "covering: no" in out


@pytest.mark.parametrize("mapping", ["5", "[0,1,2.5]", "[false,true,2]"])
def test_cover_map_must_be_integers(capsys, table_files, mapping):
    # the last two were read as [0, 1, 2] and verified as a covering
    code, out, err = run(capsys, "cover", "verify", "--base", table_files["r3"],
                         "--total", table_files["r3"], "--map", mapping)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --map must be a list of integers")


@pytest.mark.parametrize("document", [
    [], {"quandle": "r3", "coeff": "Sym2"}, {"values": 5},
], ids=["top-level-list", "no-values", "values-not-rows"])
def test_knot_malformed_cocycle_document(capsys, tmp_path, table_files, document):
    cocycle_path = tmp_path / "bad.json"
    cocycle_path.write_text(json.dumps(document))
    code, out, err = run(capsys, "knot", "invariant", "--quandle", table_files["r3"],
                         "--coeff", "Sym2", "--cocycle", str(cocycle_path),
                         "--gauss", "unknot")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: cocycle")


def test_knot_invariant_command(capsys, tmp_path, table_files, q4):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    cocycle_path = tmp_path / "beta.json"
    cocycle_path.write_text(json.dumps(cocycle_to_json(beta)))
    code, out, _ = run(
        capsys,
        "knot",
        "invariant",
        "--quandle",
        table_files["q4"],
        "--coeff",
        "Z2",
        "--cocycle",
        str(cocycle_path),
        "--gauss",
        GAUSS_CODES["trefoil_right"],
    )
    assert code == 0
    assert "colorings: 16" in out
    assert "col_count: 12" in out
    assert "(1)" in out


def test_knot_unknot(capsys, tmp_path, table_files, r3):
    s2 = CoeffGroup.symmetric(2)
    beta = q.trivial_cocycle(r3, s2)
    cocycle_path = tmp_path / "trivial.json"
    cocycle_path.write_text(json.dumps(cocycle_to_json(beta)))
    code, out, _ = run(
        capsys,
        "knot",
        "invariant",
        "--quandle",
        table_files["r3"],
        "--coeff",
        "Sym2",
        "--cocycle",
        str(cocycle_path),
        "--gauss",
        "unknot",
    )
    assert code == 0
    assert "col_count: 0" in out


def test_knot_budget(capsys, monkeypatch, tmp_path, table_files, r3):
    beta = q.trivial_cocycle(r3, CoeffGroup.symmetric(2))
    cocycle_path = tmp_path / "trivial.json"
    cocycle_path.write_text(json.dumps(cocycle_to_json(beta)))
    argv = ["knot", "invariant", "--quandle", table_files["r3"], "--coeff", "Sym2",
            "--cocycle", str(cocycle_path), "--gauss", GAUSS_CODES["trefoil_right"]]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(knots, "MAX_COLORING_NODES", 5)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "nodes" in err


@pytest.mark.parametrize("code, message", [
    ("O1+ U1-", "crossing 1 has mismatched signs"),
    ("O1+ U2+ O2+ U1+ O3+", "crossing 3 lacks an over or under passage"),
])
def test_knot_malformed_gauss_code(capsys, knot_files, code, message):
    # both were a mathematical negative, exit 1, before
    status, out, err = run(capsys, *knot_files, code)
    assert status == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def test_orbits_command(capsys, table_files):
    code, out, _ = run(capsys, "orbits", table_files["r3"], "0")
    assert code == 0
    assert "f orbit sizes:" in out
    code, out2, _ = run(capsys, "orbits", table_files["r3"], "0")
    assert out == out2
    code, _, err = run(capsys, "orbits", table_files["r3"], "7")
    assert code == 2


@pytest.mark.parametrize("point", ["-1", "3"])
def test_h2c_base_point_out_of_range(capsys, table_files, point):
    # a negative point would otherwise index the flat pair arrays from the end
    code, out, err = run(capsys, "h2c", table_files["r3"], "Sym2", "--base-point", point)
    assert code == 2
    assert out == ""
    assert err == f"input error: base point {point} out of range\n"


def test_orbits_negative_base_point(capsys, table_files):
    code, out, err = run(capsys, "orbits", table_files["r3"], "-1")
    assert code == 2
    assert out == ""
    # one check, in PairMaps, and one message, as for h2c
    assert err == "input error: base point -1 out of range\n"


def test_orbits_q4_uniform_f_length(capsys, table_files):
    code, out, _ = run(capsys, "--json", "orbits", table_files["q4"], "0")
    payload = json.loads(out)
    # non-fixed f-orbits all have length 3 = |X| - 1
    assert payload["sizes"]["f"] == [1, 1, 1, 1, 3, 3, 3, 3]


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


DEEP = "[" * 50000 + "]" * 50000


def test_deep_json_nesting_is_an_input_error(capsys, tmp_path, table_files):
    # each of these raised RecursionError out of main
    cocycle_path = tmp_path / "deep.json"
    cocycle_path.write_text(DEEP)
    for argv in (
        ["pi1", "Z 5", DEEP],
        ["cover", "verify", "--base", table_files["r3"], "--total", table_files["r3"],
         "--map", DEEP],
        ["knot", "invariant", "--quandle", table_files["r3"], "--coeff", "Sym2",
         "--cocycle", str(cocycle_path), "--gauss", "unknot"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert out == ""
        assert err.startswith("input error:"), argv[0]


def exit_code(argv):
    """main's exit code, with its reports discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# nesting depths on both sides of the JSON parser's recursion limit
nested = st.sampled_from((2, 1000, 100_000)).map(lambda d: "[" * d + "]" * d)
# groups of rank at most 3 whose descriptors keep every factor
moduli_lists = st.lists(st.integers(2, 9), min_size=1, max_size=3)
descriptors = moduli_lists.map(lambda ms: " x ".join(f"Z {d}" for d in ms))
entries = st.one_of(
    st.integers(-20, 20), st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(), st.none(), st.text(max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(descriptors, st.text(max_size=30)), st.one_of(nested, st.text(max_size=30)))
def test_pi1_arguments_fuzz(group, matrix):
    assert exit_code(["pi1", group, matrix]) in (0, 1, 2, 3)


@settings(max_examples=200, deadline=None)
@given(moduli_lists, st.data())
def test_pi1_matrix_fuzz(moduli, data):
    """Wrong-shape or non-integer matrices are input errors; well-formed ones
    end in any documented exit code."""
    k = len(moduli)
    rows, cols = (data.draw(st.integers(k - 1, k + 1)) for _ in range(2))
    cells = st.integers(-20, 20) if data.draw(st.booleans()) else entries
    matrix = data.draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
    code = exit_code(["pi1", " x ".join(f"Z {d}" for d in moduli), json.dumps(matrix)])
    assert code in (0, 1, 2, 3)
    well_formed = rows == k and cols == k and all(type(v) is int for r in matrix for v in r)
    if not well_formed:
        assert code == 2, matrix


@pytest.fixture(scope="module")
def cover_files(tmp_path_factory):
    """R_3 and its trivial extension with fiber 2, as table files."""
    r3 = q.dihedral_quandle(3)
    total = q.extend(r3, q.trivial_cocycle(r3, CoeffGroup.symmetric(2))).total
    folder = tmp_path_factory.mktemp("cover")
    paths = []
    for name, quandle in (("base", r3), ("total", total)):
        path = folder / f"{name}.txt"
        path.write_text(q.quandle_to_text(quandle))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def knot_files(tmp_path_factory):
    """The knot invariant command over R_3 and its trivial Sym(2) cocycle,
    without the Gauss code."""
    r3 = q.dihedral_quandle(3)
    folder = tmp_path_factory.mktemp("knot")
    table, cocycle = folder / "r3.txt", folder / "trivial.json"
    table.write_text(q.quandle_to_text(r3))
    cocycle.write_text(json.dumps(cocycle_to_json(q.trivial_cocycle(r3, CoeffGroup.symmetric(2)))))
    return ["knot", "invariant", "--quandle", str(table), "--coeff", "Sym2",
            "--cocycle", str(cocycle), "--gauss"]


# signed Gauss tokens over crossings 0..3, unpaired or mismatched ones included
gauss_tokens = st.builds("{}{}{}".format, st.sampled_from("OU"), st.integers(0, 3),
                         st.sampled_from("+-"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=30), st.just("unknot"),
                 st.lists(gauss_tokens, max_size=8).map(" ".join)))
def test_knot_gauss_fuzz(knot_files, text):
    """A code parse_gauss refuses is an input error; any other ends in
    success or a budget stop."""
    try:
        knots.parse_gauss(text)
        parsed = True
    except (MalformedCode, InconsistentSigns):
        parsed = False
    code = exit_code([*knot_files, text])
    assert code in ((0, 3) if parsed else (2,)), text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cover_map_fuzz(cover_files, data):
    base, total = cover_files
    text = data.draw(st.one_of(
        st.text(max_size=30),
        nested,
        st.lists(st.one_of(st.integers(-2, 4), entries), max_size=8).map(json.dumps),
    ))
    argv = ["cover", "verify", "--base", base, "--total", total, "--map", text]
    assert exit_code(argv) in (0, 1, 2, 3)
