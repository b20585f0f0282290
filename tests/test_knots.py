from itertools import product

import pytest

import quandles as q
from quandles.cocycles import CoeffGroup, ConstantCocycle, normalized_cocycles
from quandles.errors import InconsistentSigns, InvalidCocycle, MalformedCode
from quandles.knots import (
    GAUSS_CODES,
    cocycle_invariant,
    col_count,
    colorings,
    parse_gauss,
    unknot,
)
from conftest import beta_a_table


def brute_force_colorings(diagram, quandle):
    """Independent oracle: test every arc assignment against the raw relations."""
    n = quandle.size
    a = diagram.arc_count
    if not diagram.crossings:
        return [(c,) * a for c in range(n)]
    out = []
    for colors in product(range(n), repeat=a):
        ok = True
        for cr in diagram.crossings:
            over, inc, outgoing = colors[cr.over_arc], colors[cr.in_arc], colors[cr.out_arc]
            if cr.sign > 0:
                ok = quandle.op(over, inc) == outgoing
            else:
                ok = quandle.op(over, outgoing) == inc
            if not ok:
                break
        if ok:
            out.append(colors)
    return out


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
    assert sorted(found) == sorted(brute_force_colorings(diagram, r3))


def test_colorings_match_brute_force(q4, r3):
    z5 = q.FinAbGroup((5,))
    quandles_under_test = [r3, q4, q.affine_quandle(z5, q.AbHom.scaling(z5, 2))]
    for name in ("trefoil_right", "trefoil_left", "figure_eight"):
        diagram = parse_gauss(GAUSS_CODES[name])
        for quandle in quandles_under_test:
            assert sorted(colorings(diagram, quandle)) == sorted(
                brute_force_colorings(diagram, quandle)
            ), (name, quandle.size)


def test_unknot_has_no_multicolor(r3):
    diagram = unknot()
    assert len(colorings(diagram, r3)) == 3
    assert col_count(diagram, r3) == 0


def test_trivial_quandle_never_multicolors():
    diagram = parse_gauss(GAUSS_CODES["trefoil_right"])
    assert col_count(diagram, q.trivial_quandle()) == 0


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
    r5 = q.dihedral_quandle(5)
    s2 = CoeffGroup.symmetric(2)
    for quandle in (r3, q4, r5):
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
