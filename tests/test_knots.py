from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import quandles as q
from quandles import knots
from quandles.cocycles import CoeffGroup, ConstantCocycle, normalized_cocycles
from quandles.errors import BudgetExceeded, InconsistentSigns, InvalidCocycle, MalformedCode
from quandles.knots import (
    GAUSS_CODES,
    cocycle_invariant,
    col_count,
    colorings,
    parse_gauss,
    unknot,
)
from quandles.perms import orbits
from conftest import (
    beta_a_table,
    braid_closure_gauss,
    build_affine,
    companion,
    from_cycles,
    least_budget,
    primitive_polynomial,
    reference_colorings,
)


def transposition_quandle():
    """Conjugation on the six transpositions of Sym(4): connected, not latin,
    not affine."""
    return q.conjugation_quandle(
        [from_cycles(4, [(a, b)]) for a in range(4) for b in range(a + 1, 4)]
    )


# latin and non-latin, connected and not, affine and not
COLORING_QUANDLES = {
    "R3": q.dihedral_quandle(3),
    "R4": q.dihedral_quandle(4),
    "R5": q.dihedral_quandle(5),
    "R6": q.dihedral_quandle(6),
    "q4": build_affine("q4"),
    "z5_l2": build_affine("z5_l2"),
    "trivial3": q.projection_quandle(3),
    "trivial1": q.projection_quandle(1),
    "transpositions": transposition_quandle(),
}


def test_parse_trefoil():
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    assert len(diagram.crossings) == 3
    assert diagram.arc_count == 3
    assert len(diagram.passages) == 6
    assert len(diagram.under_order) == 3


def test_parse_unknot():
    diagram = parse_gauss("unknot")
    assert diagram.arc_count == 1
    assert not diagram.crossings
    assert unknot() == diagram


def test_parse_errors():
    with pytest.raises(MalformedCode):
        parse_gauss("")
    with pytest.raises(MalformedCode):
        parse_gauss("O1+ U2+")
    with pytest.raises(MalformedCode):
        parse_gauss("O1+ O1+ U1+ U1+")
    with pytest.raises(MalformedCode):
        parse_gauss("X1+ U1+")
    with pytest.raises(InconsistentSigns):
        parse_gauss("O1+ U1-")


def test_trefoil_colorings_by_dihedral(r3):
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    found = colorings(diagram, r3)
    assert len(found) == 9
    assert col_count(diagram, r3) == 6
    assert found == reference_colorings(diagram, r3)


def test_colorings_match_brute_force():
    # the same list in the same (lexicographic) order as the brute force
    for mirror_convention in (False, True):
        for qname, quandle in COLORING_QUANDLES.items():
            for name, code in GAUSS_CODES.items():
                diagram = parse_gauss(code)
                assert colorings(diagram, quandle, mirror_convention=mirror_convention) == (
                    reference_colorings(diagram, quandle, mirror_convention)
                ), (qname, name, mirror_convention)


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda strands: st.tuples(
            st.just(strands),
            st.lists(
                st.sampled_from([g for i in range(1, strands) for g in (i, -i)]),
                min_size=1,
                max_size=6,
            ),
        )
    ),
    st.sampled_from(list(COLORING_QUANDLES.values())),
    st.booleans(),
)
def test_braid_closure_colorings_match_reference(braid, quandle, mirror_convention):
    strands, word = braid
    code = braid_closure_gauss(word, strands)
    assume(code is not None and quandle.size ** len(word) <= 10**4)
    diagram = parse_gauss(code)
    assert colorings(diagram, quandle, mirror_convention=mirror_convention) == (
        reference_colorings(diagram, quandle, mirror_convention)
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_fox_count_on_torus_knots(p):
    # Fox: R_p colors T(2, c) in p * p^[p | c] ways; T(2, 21) by R_13 has
    # 13^21 arc assignments, so only propagation reaches it
    rp = q.dihedral_quandle(p)
    for c in range(1, 22, 2):
        diagram = parse_gauss(braid_closure_gauss((1,) * c, 2))
        expected = p * (p if c % p == 0 else 1)
        assert col_count(diagram, rp) == expected - p, c
        assert col_count(diagram, rp, mirror_convention=True) == expected - p, c


def test_coloring_budget(monkeypatch, r3):
    """The pinned search of ``col_count`` visits one subtree of the full one:
    trefoil by R_3 needs 13 nodes listed and 4 counted, so under a cap of 5
    it is counted but cannot be listed."""
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    assert len(colorings(diagram, r3)) == 9

    def under_cap(fn):
        def run(budget):
            monkeypatch.setattr(knots, "MAX_COLORING_NODES", budget)
            return fn(diagram, r3)
        return run

    assert least_budget(under_cap(colorings)) == 13
    assert least_budget(under_cap(col_count)) == 4
    monkeypatch.setattr(knots, "MAX_COLORING_NODES", 5)
    assert col_count(diagram, r3) == 6
    with pytest.raises(BudgetExceeded):
        colorings(diagram, r3)


# braid words of the twist knots 4_1, 5_2 and 6_1, with their strand counts
TWIST_BRAIDS = {
    "4_1": ((1, -2, 1, -2), 3),
    "5_2": ((1, 1, 1, 2, -1, 2), 3),
    "6_1": ((1, 1, 2, -1, -3, 2, -3), 4),
}


def knot_codes():
    """The Gauss codes by name: the fixtures, the torus knots T(2, c) for
    c in 3, 5, 7, 9, and the twist knots."""
    codes = dict(GAUSS_CODES)
    for c in (3, 5, 7, 9):
        codes[f"T{c}"] = braid_closure_gauss((1,) * c, 2)
    for name, (word, strands) in TWIST_BRAIDS.items():
        codes[name] = braid_closure_gauss(word, strands)
    return codes


def test_col_count_matches_colorings_across_orbits(q4):
    """``col_count`` searches once per Inn(Q)-orbit, so it must equal the
    full list minus the constant colorings on connected quandles (one orbit)
    and disconnected ones (several orbits, of sizes 3 and 1 for R_3 with a
    point added that every translation fixes), in both conventions."""
    trivial_cover = q.extend(q4, q.trivial_cocycle(q4, CoeffGroup.symmetric(2))).total
    r3_and_point = q.from_table([[*row, 3] for row in q.dihedral_quandle(3).table] + [[0, 1, 2, 3]])
    aff_f8 = q.affine_quandle(q.FinAbGroup((2, 2, 2)), companion(primitive_polynomial(2, 3)))
    quandles = {
        "R3": q.dihedral_quandle(3),
        "R5": q.dihedral_quandle(5),
        "R7": q.dihedral_quandle(7),
        "q4": q4,
        "Q(Z_3^2, -1)": build_affine("z3sq_neg"),
        "Aff(F_8)": aff_f8,
        "R4": q.dihedral_quandle(4),
        "R6": q.dihedral_quandle(6),
        "R8": q.dihedral_quandle(8),
        "trivial3": q.projection_quandle(3),
        "q4 x Sym(2)": trivial_cover,
        "R3 + point": r3_and_point,
    }
    orbit_counts = {name: len(orbits(quandle.table, quandle.size)[1])
                    for name, quandle in quandles.items()}
    assert orbit_counts == {**dict.fromkeys(["R3", "R5", "R7", "q4", "Q(Z_3^2, -1)", "Aff(F_8)"], 1),
                            "R4": 2, "R6": 2, "R8": 2, "trivial3": 3, "q4 x Sym(2)": 2,
                            "R3 + point": 2}
    cases = 0
    for code_name, code in knot_codes().items():
        diagram = parse_gauss(code)
        for qname, quandle in quandles.items():
            for mirror_convention in (False, True):
                listed = len(colorings(diagram, quandle, mirror_convention=mirror_convention))
                assert col_count(diagram, quandle, mirror_convention=mirror_convention) == (
                    listed - quandle.size
                ), (code_name, qname, mirror_convention)
                cases += 1
    assert cases == 13 * 12 * 2


def test_cocycle_invariant_labels_move_under_inner_automorphisms(monkeypatch):
    """The invariant cannot be read off the colorings with arc 0 pinned: on
    6_1 by Q(Z_3^2, -1) with a nontrivial class over Z_3, those with arc 0
    colored 0 are all labeled (0), while every other color at arc 0 splits
    them 2, 3, 3 over the three classes."""
    quandle = build_affine("z3sq_neg")
    beta = q.h2c(quandle, CoeffGroup.abelian((3,)))[1]
    assert not beta.is_trivial()
    diagram = parse_gauss(knot_codes()["6_1"])
    for mirror_convention in (False, True):
        full = colorings(diagram, quandle, mirror_convention=mirror_convention)
        by_color = {}
        for x in range(quandle.size):
            pinned = [c for c in full if c[0] == x]
            monkeypatch.setattr(knots, "colorings", lambda *args, **kwargs: pinned)
            by_color[x] = cocycle_invariant(diagram, quandle, beta,
                                            mirror_convention=mirror_convention)
        monkeypatch.undo()
        assert by_color[0] == ("(0)",) * 8
        for x in range(1, quandle.size):
            assert by_color[x] == ("(0)",) * 2 + ("(1)",) * 3 + ("(2)",) * 3, x
        assert sorted(sum(by_color.values(), ())) == list(
            cocycle_invariant(diagram, quandle, beta, mirror_convention=mirror_convention)
        )


def test_unknot_has_no_multicolor(r3):
    diagram = unknot()
    assert len(colorings(diagram, r3)) == 3
    assert col_count(diagram, r3) == 0


def test_trivial_quandle_never_multicolors():
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    assert col_count(diagram, q.projection_quandle(1)) == 0


def test_figure_eight_counts():
    diagram = parse_gauss(GAUSS_CODES["figure_eight"])
    r5 = q.dihedral_quandle(5)
    assert len(colorings(diagram, r5)) == 25
    assert col_count(diagram, r5) == 20
    r3 = q.dihedral_quandle(3)
    assert col_count(diagram, r3) == 0


def test_trivial_cocycle_gives_trivial_classes(r3):
    s2 = CoeffGroup.symmetric(2)
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    invariant = cocycle_invariant(diagram, r3, q.trivial_cocycle(r3, s2))
    assert len(invariant) == 6
    assert set(invariant) == {s2.label(s2.identity)}


def test_simply_connected_base_gives_trivial_invariant(r3):
    # every cocycle over a simply connected latin quandle produces the
    # trivial multiset, whatever the knot
    s2 = CoeffGroup.symmetric(2)
    identity_label = s2.label(s2.identity)
    from quandles.cocycles import _twist

    cocycles = list(normalized_cocycles(r3, s2, 0))
    # include non-normalized cohomologous twists as well
    for gamma in product(range(2), repeat=3):
        for beta in list(cocycles):
            twisted = ConstantCocycle(r3, s2, _twist(beta, list(gamma)))
            if twisted not in cocycles:
                cocycles.append(twisted)
    for name in ("trefoil_right", "trefoil_left", "figure_eight"):
        diagram = parse_gauss(GAUSS_CODES[name])
        for beta in cocycles:
            invariant = cocycle_invariant(diagram, r3, beta)
            assert set(invariant) <= {identity_label}, name


def test_counts_follow_from_the_invariant(q4, r3):
    # the CLI reads both coloring counts off the invariant's length
    s2 = CoeffGroup.symmetric(2)
    for quandle in (r3, q4, q.dihedral_quandle(5), q.dihedral_quandle(4), q.projection_quandle(3)):
        beta = q.trivial_cocycle(quandle, s2)
        for name, code in GAUSS_CODES.items():
            diagram = parse_gauss(code)
            total = len(colorings(diagram, quandle))
            invariant = cocycle_invariant(diagram, quandle, beta)
            assert col_count(diagram, quandle) == len(invariant), name
            assert total == len(invariant) + quandle.size, name


GOLDEN_Q4_TREFOIL = ("(1)",) * 12


def test_order4_trefoil_golden_value(q4):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    assert col_count(diagram, q4) == 12
    assert cocycle_invariant(diagram, q4, beta) == GOLDEN_Q4_TREFOIL


def test_invariant_base_point_independence(q4, r3):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    values = {
        cocycle_invariant(diagram, q4, beta, start=s)
        for s in range(len(diagram.under_order))
    }
    assert values == {GOLDEN_Q4_TREFOIL}


def test_reidemeister_fixtures_agree(q4, r3):
    z2 = CoeffGroup.abelian((2,))
    s2 = CoeffGroup.symmetric(2)
    fixtures = ["trefoil_right", "trefoil_right_rotated", "trefoil_right_kinked"]
    cases = [
        (q4, ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))),
        (r3, q.trivial_cocycle(r3, s2)),
    ]
    for quandle, beta in cases:
        counts = {col_count(parse_gauss(GAUSS_CODES[f]), quandle) for f in fixtures}
        assert len(counts) == 1
        invariants = {
            cocycle_invariant(parse_gauss(GAUSS_CODES[f]), quandle, beta)
            for f in fixtures
        }
        assert len(invariants) == 1


def test_mirror_convention_on_amphichiral(q4):
    # swapping the crossing convention must preserve all counts on the
    # amphichiral figure-eight
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    diagram = parse_gauss(GAUSS_CODES["figure_eight"])
    for quandle in (q4, q.dihedral_quandle(5)):
        assert col_count(diagram, quandle) == col_count(
            diagram, quandle, mirror_convention=True
        )
    assert cocycle_invariant(diagram, q4, beta) == cocycle_invariant(
        diagram, q4, beta, mirror_convention=True
    )


def test_mirror_convention_matches_mirror_image(q4):
    # recoloring with the swapped convention agrees with coloring the mirror
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    right = parse_gauss(GAUSS_CODES["trefoil_right"])
    left = parse_gauss(GAUSS_CODES["trefoil_left"])
    assert col_count(right, q4, mirror_convention=True) == col_count(left, q4)
    assert cocycle_invariant(right, q4, beta, mirror_convention=True) == (
        cocycle_invariant(left, q4, beta)
    )


def test_coloring_colors_generate_connected_subquandles(q4, r3):
    # the arc colors generate the image of the knot-quandle homomorphism,
    # which is a connected subquandle; the bare color set need not be closed
    # (a trefoil coloring of the order-4 quandle uses exactly three colors)
    def generated(quandle, seeds):
        closed = set(seeds)
        frontier = list(closed)
        while frontier:
            new = []
            for x in closed.copy():
                for y in frontier:
                    for v in (quandle.op(x, y), quandle.op(y, x)):
                        if v not in closed:
                            closed.add(v)
                            new.append(v)
            frontier = new
        return sorted(closed)

    z5 = q.FinAbGroup((5,))
    quandles_under_test = [r3, q4, q.affine_quandle(z5, q.AbHom.scaling(z5, 2))]
    for name in ("trefoil_right", "figure_eight"):
        diagram = parse_gauss(GAUSS_CODES[name])
        for quandle in quandles_under_test:
            for coloring in colorings(diagram, quandle):
                sub = quandle.restrict(generated(quandle, coloring))
                assert sub.is_connected()
    three_colors = next(
        c for c in colorings(parse_gauss(GAUSS_CODES["trefoil_right"]), q4)
        if len(set(c)) == 3
    )
    with pytest.raises(ValueError):
        q4.restrict(sorted(set(three_colors)))


def test_invariant_rejects_foreign_cocycle(q4, r3):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    with pytest.raises(InvalidCocycle):
        cocycle_invariant(diagram, r3, beta)
