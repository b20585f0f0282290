import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles as q
from quandles import cli, knots
from quandles.cli import main
from quandles.cocycles import (
    CoeffGroup,
    ConstantCocycle,
    cocycle_from_json,
    cocycle_to_json,
    parse_coeff_descriptor,
)
from quandles.errors import BudgetExceeded, InconsistentSigns, MalformedCode, QuandleError
from quandles.knots import GAUSS_CODES
from quandles.pi1 import MAX_PI1_RANK
from conftest import (
    beta_a_table,
    galkin_quandle,
    primitive_affine,
    refuse_table,
    transposition_quandle,
)


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
    """A well-formed matrix over a group of rank above the cap exits 3 before
    any lattice reduction: -1 and the zero matrix, which is no automorphism,
    at rank 17, and a dense seeded matrix at rank 400."""
    rng = random.Random(1)
    cases = [(MAX_PI1_RANK + 1, 3, lambda i, j: 2 * (i == j)), (MAX_PI1_RANK + 1, 3, lambda i, j: 0),
             (400, 2**20, lambda i, j: rng.randrange(2**20))]
    for k, modulus, entry in cases:
        matrix = json.dumps([[entry(i, j) for j in range(k)] for i in range(k)])
        start = time.perf_counter()
        code, out, err = run(capsys, "pi1", " x ".join([f"Z {modulus}"] * k), matrix)
        assert time.perf_counter() - start < 1.0, k
        assert (code, out) == (3, ""), k
        assert err.startswith(f"budget exceeded: pi1 needs rank <= {MAX_PI1_RANK}"), k


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
    # one check, in pair_map, and one message, as for h2c
    assert err == "input error: base point -1 out of range\n"


def test_orbits_q4_uniform_f_length(capsys, table_files):
    code, out, _ = run(capsys, "--json", "orbits", table_files["q4"], "0")
    payload = json.loads(out)
    # non-fixed f-orbits all have length 3 = |X| - 1
    assert payload["sizes"]["f"] == [1, 1, 1, 1, 3, 3, 3, 3]


# sha256 of every report of ORBITS_GOLDEN_CASES below, recorded before the pair
# maps became one image tuple each; the orbits bytes must not change
ORBITS_GOLDEN_DIGEST = "40b3d272188fe74d2aadd948f66c7eb54546ea11f6c5bbed8a0ef71e15406095"


def test_orbits_bytes_are_pinned(capsys, tmp_path, r3, q4):
    """Every base point of r3, q4, Q(Z_3^2, -1), Aff(F_27) and Q(Z_5^2, -1),
    plain and --json, with the exit code and stderr of the base points -1
    and n and of a table that is not latin."""
    neg = [[-1, 0], [0, -1]]
    tables = [
        ("r3", r3),
        ("q4", q4),
        ("z3sq_neg", q.affine_quandle(q.FinAbGroup((3, 3)), neg)),
        ("aff27", primitive_affine(27)),
        ("z5sq_neg", q.affine_quandle(q.FinAbGroup((5, 5)), neg)),
    ]
    cases = []
    for name, quandle in tables:
        path = tmp_path / f"{name}.txt"
        path.write_text(q.quandle_to_text(quandle))
        cases += [(name, str(path), u) for u in range(-1, quandle.size + 1)]
    path = tmp_path / "p3.txt"
    path.write_text(q.quandle_to_text(q.projection_quandle(3)))
    cases.append(("p3", str(path), 0))
    digest = hashlib.sha256()
    for name, path, u in cases:
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, *flags, "orbits", path, str(u))
            digest.update(f"{name} {flags} {u} {code}\n{out}\x00{err}\x00".encode())
    assert digest.hexdigest() == ORBITS_GOLDEN_DIGEST


# sha256 of every report of test_h2c_bytes_are_pinned, recorded before the
# h2c relators became a presentation of their own; the h2c bytes must not change
H2C_GOLDEN_DIGEST = "dc7782f77c006e4d0f2b37d11abc0bab7f27b0c9b8695a694fa0a17a057ba4b1"


def test_h2c_bytes_are_pinned(capsys, tmp_path, monkeypatch, r3, q4):
    """r3, q4, Q(Z_3^2, -1), Aff(F_27), Q(Z_5^2, -1) and G(Z_5, 1) over Z2,
    Z3 and Sym(3) at the base points 0 and n - 1, plain and --json, and one
    run out of budget with its exit code and stderr. The tables are read by
    relative name, since --json reports the path as given."""
    neg = [[-1, 0], [0, -1]]
    tables = [
        ("r3", r3),
        ("q4", q4),
        ("z3sq_neg", q.affine_quandle(q.FinAbGroup((3, 3)), neg)),
        ("aff27", primitive_affine(27)),
        ("z5sq_neg", q.affine_quandle(q.FinAbGroup((5, 5)), neg)),
        ("galkin_5_1", galkin_quandle(5, 1)),
    ]
    monkeypatch.chdir(tmp_path)
    cases = []
    for name, quandle in tables:
        (tmp_path / f"{name}.txt").write_text(q.quandle_to_text(quandle))
        for coeff in ("Z2", "Z3", "Sym(3)"):
            for u in (0, quandle.size - 1):
                for flags in ((), ("--json",)):
                    cases.append((*flags, "h2c", f"{name}.txt", coeff, "--base-point", str(u)))
    cases.append(("h2c", "q4.txt", "Sym(3)", "--budget", "3"))
    digest = hashlib.sha256()
    for argv in cases:
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv} {code}\n{out}\x00{err}\x00".encode())
    assert run(capsys, *cases[-1])[0] == 3
    assert digest.hexdigest() == H2C_GOLDEN_DIGEST


# sha256 of every report of test_check_bytes_are_pinned, recorded before the
# LMlt predicates were read at the generating set and the permutation class
# gave way to image tuples; the check bytes must not change
CHECK_GOLDEN_DIGEST = "8ccc4c5cc71e25e9202470234f0dca59886f44dd61025dfd2db20cf50387e930"


def test_check_bytes_are_pinned(capsys, tmp_path, monkeypatch, r3, q4):
    """check on r3, q4, a projection table and the 45 transpositions of
    Sym(10), plain and --json, read by relative name since --json echoes the
    path; every field reads an LMlt predicate."""
    tables = [
        ("r3", r3),
        ("q4", q4),
        ("p3", q.projection_quandle(3)),
        ("sym10_transpositions", transposition_quandle(10)),
    ]
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for name, quandle in tables:
        (tmp_path / f"{name}.txt").write_text(q.quandle_to_text(quandle))
        for flags in ((), ("--json",)):
            argv = (*flags, "check", f"{name}.txt")
            code, out, err = run(capsys, *argv)
            digest.update(f"{argv} {code}\n{out}\x00{err}\x00".encode())
    assert digest.hexdigest() == CHECK_GOLDEN_DIGEST


def test_traced_orbits_are_charged_to_the_partition_layer(capsys, table_files):
    """The benchmark tracer, read as text as in test_trace_contract.py, times
    the orbits partitions as ``cocycles.partition_s``, not as CLI time."""
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    namespace = {"__name__": "bench_tracing"}
    exec(compile(tracing.read_text(encoding="utf-8"), str(tracing), "exec"), namespace)
    tracer = namespace["Tracer"]()
    tracer.install(q)
    try:
        assert cli.main(["orbits", table_files["q4"], "0"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.counts["cocycles.partition_blocks"] > 0
    assert tracer.self_time["cocycles.partition_s"] > 0


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


def owed_exit(parse, *args):
    """The exit code main owes an input that ``parse`` refuses, by the error
    it raises, or None if it parses. Any other error escapes and fails."""
    try:
        parse(*args)
    except BudgetExceeded:
        return 3
    except (ValueError, RecursionError):
        return 2
    except QuandleError:
        return 1
    return None


@pytest.fixture(scope="module")
def fuzz_folder(tmp_path_factory):
    """A folder for fuzzed input files, with R_3's table as r3.txt."""
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "r3.txt").write_text(q.quandle_to_text(q.dihedral_quandle(3)))
    return folder


# junk tokens: a float, a bool, a non-ASCII digit, a word
junk_tokens = st.sampled_from(("1.5", "True", "\u0663", "x", "-0", "1_0"))


@st.composite
def table_texts(draw):
    """A size line and n^2 entries give or take one, some out of range or junk."""
    n = draw(st.integers(-1, 4))
    count = max(0, n * n + draw(st.integers(-1, 1)))
    cells = st.one_of(st.integers(-1, max(n, 1)), junk_tokens)
    entries = draw(st.lists(cells, min_size=count, max_size=count))
    return " ".join(map(str, [n, *entries]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40), table_texts()))
def test_table_text_fuzz(fuzz_folder, text):
    """quandle_from_text raises only ValueError or a QuandleError, and
    `check` exits as it parsed: a file that is not ASCII is an input error."""
    owed = owed_exit(q.quandle_from_text, text) if text.isascii() else 2
    path = fuzz_folder / "table.txt"
    path.write_text(text, encoding="utf-8")
    assert exit_code(["check", str(path)]) == (owed or 0), text


coeff_descriptors = st.one_of(
    st.text(max_size=20),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(("Sym(", "sym ", "S", "s", "Z", "Z ", "z", "trivial", "")),
        st.one_of(st.integers(-2, 9), st.just(10**6), junk_tokens),
        st.sampled_from(("", ")", " x Z 2", " x ", "x Z3", " X Z 2")),
    ),
)


@settings(max_examples=200, deadline=None)
@given(coeff_descriptors)
def test_coeff_descriptor_fuzz(fuzz_folder, text):
    """parse_coeff_descriptor raises only ValueError or BudgetExceeded, and
    `h2c` exits as it parsed; a parsed group ends in success or a budget stop."""
    owed = owed_exit(parse_coeff_descriptor, text)
    code = exit_code(["h2c", str(fuzz_folder / "r3.txt"), text])
    assert code in ((owed,) if owed else (0, 3)), text


# any JSON value, nested a few levels
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=12,
)
R3_TABLE = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


@st.composite
def cocycle_documents(draw):
    """Cocycle documents over R_3 and Sym(2), some well-formed, some with a
    key missing, a wrong shape, a foreign label or a junk value."""
    n = draw(st.integers(2, 4))
    cells = st.one_of(st.sampled_from(("[0,1]", "[1,0]", "(1)")), json_values)
    document = {
        "quandle": draw(st.one_of(st.just({"table": R3_TABLE}), json_values)),
        "coeff": draw(st.one_of(st.sampled_from(("Sym2", "Z2", "S1")), json_values)),
        "values": draw(st.one_of(
            st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n),
            json_values,
        )),
    }
    for key in draw(st.sets(st.sampled_from(sorted(document)), max_size=1)):
        del document[key]
    return document


@settings(max_examples=200, deadline=None)
@given(cocycle_documents())
def test_cocycle_document_fuzz(fuzz_folder, document):
    """cocycle_from_json raises only ValueError or a QuandleError, and
    `knot invariant --cocycle` exits as the cocycle parsed over R_3 and
    Sym(2)."""
    # the library parser alone: an error other than the documented ones escapes
    owed_exit(cocycle_from_json, document)
    owed = owed_exit(cocycle_from_json, document, q.dihedral_quandle(3), CoeffGroup.symmetric(2))
    path = fuzz_folder / "cocycle.json"
    path.write_text(json.dumps(document))
    argv = ["knot", "invariant", "--quandle", str(fuzz_folder / "r3.txt"), "--coeff", "Sym2",
            "--cocycle", str(path), "--gauss", GAUSS_CODES["trefoil_right"]]
    assert exit_code(argv) in ((owed,) if owed else (0, 3)), document
