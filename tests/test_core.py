import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import quandles as q
from conftest import AFFINE_CORPUS_DEFS, endomorphism
from quandles.core import _validate_table
from quandles.errors import (
    NotAutomorphism,
    NotClosedUnderConjugation,
    NotIdempotent,
    NotLatin,
    NotLeftDistributive,
    NotLeftQuasigroup,
    SubgroupNotFixed,
)
from quandles.perms import Perm

R3_TABLE = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_r3_from_table():
    quandle = q.Quandle(R3_TABLE)
    # hand check of x*y = 2y - x mod 3
    for x in range(3):
        for y in range(3):
            assert quandle.op(x, y) == (2 * y - x) % 3


def test_trivial_table():
    assert q.Quandle([[0]]).size == 1


def test_not_left_quasigroup():
    with pytest.raises(NotLeftQuasigroup) as info:
        q.Quandle([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    assert info.value.witness == (0, 0, 1)


def test_not_idempotent():
    with pytest.raises(NotIdempotent) as info:
        q.Quandle([[1, 0], [1, 0]])
    assert info.value.witness == (0,)


def test_not_left_distributive_smallest_witness():
    table = [[0, 2, 1], [2, 1, 0], [0, 1, 2]]
    # hand check: (0,0,z) always holds, and 0*(1*0) = 0*2 = 1 while
    # (0*1)*(0*0) = 2*0 = 0, so (0,1,0) is the least violation
    with pytest.raises(NotLeftDistributive) as info:
        q.Quandle(table)
    assert info.value.witness == (0, 1, 0)


def test_projection_quandle():
    p3 = q.projection_quandle(3)
    assert all(p3.op(x, y) == y for x in range(3) for y in range(3))
    assert p3.lmlt().order() == 1
    assert not p3.is_connected()
    assert q.projection_quandle(1).size == 1


def test_conjugation_quandle_transpositions():
    transpositions = [
        Perm.from_cycles(3, [(0, 1)]),
        Perm.from_cycles(3, [(0, 2)]),
        Perm.from_cycles(3, [(1, 2)]),
    ]
    conj = q.conjugation_quandle(transpositions)
    assert conj.size == 3
    assert q.are_isomorphic(conj, q.dihedral_quandle(3))


def test_conjugation_quandle_identity():
    assert q.conjugation_quandle([Perm.identity(3)]).size == 1


def test_conjugation_quandle_not_closed():
    with pytest.raises(NotClosedUnderConjugation):
        q.conjugation_quandle(
            [Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])]
        )


def test_affine_examples(r3, q4):
    assert r3.op(0, 1) == 2
    assert r3.op(1, 0) == 2
    assert r3.left_section[0].images == tuple(
        r3.group.index_of(r3.alpha(x)) for x in r3.group.elements()
    )
    assert q4.is_doubly_transitive()
    # identity automorphism gives the projection quandle
    g = q.FinAbGroup((4,))
    proj = q.affine_quandle(g, q.AbHom.identity(g))
    assert proj.table == q.projection_quandle(4).table


def test_affine_rejects_non_automorphism():
    g = q.FinAbGroup((4,))
    with pytest.raises(NotAutomorphism):
        q.affine_quandle(g, q.AbHom.scaling(g, 2))


def test_affine_left_translations_are_translated_alpha(small_affine_corpus):
    # L_x(y) = (1-alpha)(x) + alpha(y), so L_0 = alpha and every L_x is a
    # translate of it
    for _, quandle in small_affine_corpus:
        group, alpha = quandle.group, quandle.alpha
        one_minus = q.AbHom.identity(group) - alpha
        for x, xe in enumerate(group.elements()):
            shift = one_minus(xe)
            expected = tuple(
                group.index_of(group.add(shift, alpha(y))) for y in group.elements()
            )
            assert quandle.left_section[x].images == expected


def test_coset_quandle_full_subgroup_is_trivial():
    # H = G forces alpha to fix everything, since H <= Fix(alpha)
    g = q.FinAbGroup((3, 3))
    full = list(g.elements())
    assert q.coset_quandle(g, full, q.AbHom.identity(g)).size == 1


def test_coset_quandle_trivial_subgroup_is_principal():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    principal = q.coset_quandle(g, [g.zero], swap)
    direct = q.affine_quandle(g, swap)
    assert principal.table == direct.table


def test_coset_quandle_diagonal():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    diagonal = [(t, t) for t in range(3)]
    quandle = q.coset_quandle(g, diagonal, swap)
    assert quandle.size == 3


def test_coset_quandle_subgroup_not_fixed():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    axis = [(0, 0), (0, 1), (0, 2)]
    with pytest.raises(SubgroupNotFixed):
        q.coset_quandle(g, axis, swap)


def test_coset_quandle_from_perm_group():
    gens = [Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])]
    group = q.PermGroup(gens)
    n = group.order()
    identity_map = list(range(n))
    quandle = q.coset_quandle(group, [0], identity_map)
    assert quandle.size == n
    assert quandle.table == q.projection_quandle(n).table


def test_divisions(r3):
    for x in range(3):
        for y in range(3):
            assert r3.left_divide(x, r3.op(x, y)) == y
            assert r3.op(r3.right_divide(x, y), y) == x
    assert r3.right_divide(0, 1) == 2


def test_right_division_needs_latin():
    with pytest.raises(NotLatin):
        q.projection_quandle(2).right_divide(0, 1)


def test_structure_flags(r3, q4):
    assert r3.is_latin and r3.is_connected() and r3.is_doubly_transitive()
    assert r3.semiregular_length() == 2
    assert r3.lmlt().order() == 6
    assert not q.projection_quandle(2).is_connected()
    assert q4.semiregular_length() == 3
    assert (q4.size - 1) % q4.semiregular_length() == 0


def check_affine_construction(group, alpha):
    """The axioms, the formula x + alpha(y - x) and connectivity, re-proved
    on the table that AffineQuandle builds without validating it."""
    quandle = q.AffineQuandle(group, alpha)
    assert _validate_table(quandle.table) == quandle.table
    elems = group.elements()
    for x, xe in enumerate(elems):
        assert [elems[v] for v in quandle.table[x]] == [
            group.add(xe, alpha(group.sub(ye, xe))) for ye in elems
        ]
    assert q.affine_is_connected(group, alpha) == quandle.is_connected()


def test_affine_construction_on_corpus():
    for _, moduli, matrix in AFFINE_CORPUS_DEFS:
        group = q.FinAbGroup(moduli)
        check_affine_construction(group, q.AbHom(group, group, matrix))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 8), max_size=3).filter(lambda m: math.prod(m) <= 64),
    st.data(),
)
def test_affine_construction_on_random_groups(moduli, data):
    group = q.FinAbGroup(tuple(moduli))
    entries = st.lists(st.integers(0, 7), min_size=group.rank**2, max_size=group.rank**2)
    for _ in range(20):
        alpha = endomorphism(group, data.draw(entries))
        if alpha.is_automorphism():
            break
    else:
        reject()
    check_affine_construction(group, alpha)


def test_affine_is_connected():
    z5 = q.FinAbGroup((5,))
    assert q.affine_is_connected(z5, q.AbHom.scaling(z5, 2))
    z4 = q.FinAbGroup((4,))
    assert not q.affine_is_connected(z4, q.AbHom.scaling(z4, 3))
    z9 = q.FinAbGroup((9,))
    assert q.affine_is_connected(z9, q.AbHom.scaling(z9, 2))


def test_cyclic_affine_connectivity_matches_gcd_rule():
    import math

    for m in range(2, 16):
        g = q.FinAbGroup.cyclic(m)
        for n in range(1, m):
            if math.gcd(m, n) != 1:
                continue
            expected = math.gcd(m, 1 - n) == 1
            assert q.affine_is_connected(g, q.AbHom.scaling(g, n)) == expected


def test_flexibility_everywhere(affine_corpus):
    for _, quandle in affine_corpus:
        n = quandle.size
        for x in range(n):
            for y in range(n):
                assert quandle.op(x, quandle.op(y, x)) == quandle.op(
                    quandle.op(x, y), x
                )


def test_latin_division_identities(affine_corpus):
    # x*(y/z) = (x*y)/(x*z) and the two mixed identities
    # (xy)/z = x(y/(x\z)) and (x/y)(zy) = ((x/y)z)x, on orders up to 12
    for _, quandle in ((n, qu) for n, qu in affine_corpus if qu.size <= 12):
        n = quandle.size
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert quandle.op(x, quandle.right_divide(y, z)) == (
                        quandle.right_divide(quandle.op(x, y), quandle.op(x, z))
                    )
                    assert quandle.right_divide(quandle.op(x, y), z) == quandle.op(
                        x, quandle.right_divide(y, quandle.left_divide(x, z))
                    )
                    xy = quandle.right_divide(x, y)
                    assert quandle.op(xy, quandle.op(z, y)) == quandle.op(
                        quandle.op(xy, z), x
                    )


def test_latin_implies_connected(affine_corpus):
    for _, quandle in affine_corpus:
        if quandle.is_latin:
            assert quandle.is_connected()


def test_conjugation_closure_of_left_sections(affine_corpus):
    # L_y L_x L_y^-1 = L_{y*x}
    for _, quandle in affine_corpus:
        section = quandle.left_section
        for y in range(quandle.size):
            for x in range(quandle.size):
                conj = section[y] * section[x] * section[y].inverse()
                assert conj == section[quandle.op(y, x)]


def test_doubly_transitive_have_full_cycle_translation(doubly_transitive_corpus):
    for name, quandle in doubly_transitive_corpus:
        structure = quandle.left_section[0].cycle_structure()
        assert structure == (quandle.size - 1, 1), name


def test_isomorphism_brute_force(r3):
    relabeled = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    assert q.are_isomorphic(q.Quandle(relabeled), r3)
    assert not q.are_isomorphic(r3, q.projection_quandle(3))
    with pytest.raises(ValueError):
        q.are_isomorphic(q.projection_quandle(9), q.projection_quandle(9))


def test_text_roundtrip(tmp_path, q4):
    text = q.quandle_to_text(q4)
    assert text.splitlines()[0] == "4"
    assert q.quandle_from_text(text).table == q4.table
    path = tmp_path / "q4.txt"
    path.write_text(text)
    assert q.load_quandle_file(path).table == q4.table


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        q.quandle_from_text("")
    with pytest.raises(ValueError):
        q.quandle_from_text("2\n0 1\n")
    with pytest.raises(ValueError):
        q.quandle_from_text("2\na b\nc d\n")


def test_dir_loader(tmp_path, r3, q4):
    (tmp_path / "r3.txt").write_text(q.quandle_to_text(r3))
    (tmp_path / "q4.txt").write_text(q.quandle_to_text(q4))
    loaded = q.load_quandle_dir(tmp_path)
    assert sorted(loaded) == ["q4.txt", "r3.txt"]
    assert loaded["r3.txt"].table == r3.table


def test_restrict_subquandle(q4):
    sub = q4.restrict([0])
    assert sub.size == 1
    with pytest.raises(ValueError):
        q4.restrict([0, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 9).filter(lambda m: m % 2 == 1), st.data())
def test_random_cyclic_affine_properties(m, data):
    import math

    units = [n for n in range(2, m) if math.gcd(m, n) == 1 and math.gcd(m, 1 - n) == 1]
    if not units:
        return
    n = data.draw(st.sampled_from(units))
    group = q.FinAbGroup.cyclic(m)
    quandle = q.affine_quandle(group, q.AbHom.scaling(group, n))
    assert quandle.is_latin
    assert quandle.is_connected()
