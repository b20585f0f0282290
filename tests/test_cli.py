import json
import time

import pytest

import quandles as q
from quandles.cli import main
from quandles.cocycles import CoeffGroup, ConstantCocycle, cocycle_to_json
from quandles.knots import GAUSS_CODES
from quandles.pi1 import MAX_PI1_RANK
from conftest import beta_a_table


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


def test_pi1_needs_no_table(capsys):
    # Q(Z_1001, 3) is connected and cyclic, so simply connected; its
    # million-entry table is never built
    start = time.perf_counter()
    code, out, _ = run(capsys, "pi1", "Z 1001", "[[3]]")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "pi1: trivial" in out


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


def test_orbits_command(capsys, table_files):
    code, out, _ = run(capsys, "orbits", table_files["r3"], "0")
    assert code == 0
    assert "f orbit sizes:" in out
    code, out2, _ = run(capsys, "orbits", table_files["r3"], "0")
    assert out == out2
    code, _, err = run(capsys, "orbits", table_files["r3"], "7")
    assert code == 2


def test_orbits_q4_uniform_f_length(capsys, table_files):
    code, out, _ = run(capsys, "--json", "orbits", table_files["q4"], "0")
    payload = json.loads(out)
    # non-fixed f-orbits all have length 3 = |X| - 1
    assert payload["sizes"]["f"] == [1, 1, 1, 1, 3, 3, 3, 3]


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
