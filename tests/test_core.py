import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import quandles as q
from conftest import (
    AFFINE_CORPUS_DEFS,
    PRIMITIVE_FIELDS,
    automorphism_order,
    corrupt,
    cycle_lengths,
    endomorphism,
    from_cycles,
    off_diagonal_swap,
    outcome,
    primitive_affine,
    reference_are_isomorphic,
    reference_colorings,
    reference_is_doubly_transitive,
    reference_validate_table,
    refuse_table,
    relabel,
    transposition_quandle,
)
from quandles.core import _validate_table
from quandles.errors import (
    BudgetExceeded,
    NotAutomorphism,
    NotClosedUnderConjugation,
    NotIdempotent,
    NotLatin,
    NotLeftDistributive,
    NotLeftQuasigroup,
    SubgroupNotFixed,
)
from quandles.knots import GAUSS_CODES, col_count, parse_gauss
from quandles.perms import _after, _inverse, closure, cycles, orbits

R3_TABLE = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def validated(quandle):
    """The quandle, after the full axiom check of a table that the coset and
    conjugation constructions build unchecked."""
    assert reference_validate_table(quandle.table) == quandle.table
    return quandle


def test_r3_from_table():
    quandle = q.Quandle(R3_TABLE)
    # hand check of x*y = 2y - x mod 3
    for x in range(3):
        for y in range(3):
            assert quandle.op(x, y) == (2 * y - x) % 3


def test_trivial_table():
    assert q.Quandle([[0]]).size == 1


@pytest.mark.parametrize("entry", [True, False, 1.0, -1, 3, 2**70, "0", None, [0]])
@pytest.mark.parametrize("cell", [(0, 0), (1, 2), (2, 1)])
def test_table_entries_are_point_indices(entry, cell):
    """An entry that is not an int in 0..n-1, a bool included, is refused
    with one message wherever it sits."""
    table = [list(row) for row in R3_TABLE]
    table[cell[0]][cell[1]] = entry
    with pytest.raises(ValueError) as info:
        q.Quandle(table)
    assert str(info.value) == "table is not a square array over 0..2"


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
        from_cycles(3, [(0, 1)]),
        from_cycles(3, [(0, 2)]),
        from_cycles(3, [(1, 2)]),
    ]
    conj = validated(q.conjugation_quandle(transpositions))
    assert conj.size == 3
    assert q.are_isomorphic(conj, q.dihedral_quandle(3))
    for k in range(2, 7):
        validated(transposition_quandle(k))


def test_conjugation_quandle_identity():
    assert validated(q.conjugation_quandle([(0, 1, 2)])).size == 1
    with pytest.raises(ValueError):
        q.conjugation_quandle([])


def test_conjugation_quandle_not_closed():
    with pytest.raises(NotClosedUnderConjugation):
        q.conjugation_quandle(
            [from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])]
        )


def test_affine_examples(r3, q4):
    assert r3.op(0, 1) == 2
    assert r3.op(1, 0) == 2
    assert r3.table[0] == tuple(
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


def test_affine_table_builds_one_hom(monkeypatch):
    """The table of Q(G, alpha) builds 1 - alpha as one AbHom, and it is
    x*y = x + alpha(y - x)."""
    built = []
    init = q.AbHom.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    for name, moduli, matrix in AFFINE_CORPUS_DEFS:
        quandle = q.affine_quandle(q.FinAbGroup(moduli), matrix)
        with monkeypatch.context() as patch:
            patch.setattr(q.AbHom, "__init__", counting_init)
            table = quandle.table
        assert len(built) == 1, name
        built.clear()
        group, alpha = quandle.group, quandle.alpha
        elems = group.elements()
        assert table == tuple(
            tuple(group.index_of(group.add(x, alpha(group.sub(y, x)))) for y in elems)
            for x in elems
        ), name


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
            assert quandle.table[x] == expected


def test_coset_quandle_full_subgroup_is_trivial():
    # H = G forces alpha to fix everything, since H <= Fix(alpha)
    g = q.FinAbGroup((3, 3))
    full = list(g.elements())
    assert validated(q.coset_quandle(g, full, q.AbHom.identity(g))).size == 1


def test_coset_quandle_trivial_subgroup_is_principal():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    principal = validated(q.coset_quandle(g, [g.zero], swap))
    direct = q.affine_quandle(g, swap)
    assert principal.table == direct.table


def test_coset_quandle_diagonal():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    diagonal = [(t, t) for t in range(3)]
    quandle = validated(q.coset_quandle(g, diagonal, swap))
    assert quandle.size == 3


def test_coset_quandle_subgroup_not_fixed():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    axis = [(0, 0), (0, 1), (0, 2)]
    with pytest.raises(SubgroupNotFixed):
        q.coset_quandle(g, axis, swap)


def test_coset_quandle_refuses_non_integer_entries():
    z2 = [[0, 1], [1, 0]]
    for table, subgroup, automorphism in (
        (z2, [0.7], [0, 1.2]),
        (z2, [0.7], [0, 1]),
        (z2, [0], [0, 1.2]),
        (z2, [True], [0, 1]),
        ([[0.0, 1.0], [1.0, 0.0]], [0], [0, 1]),
    ):
        with pytest.raises(ValueError):
            q.coset_quandle(table, subgroup, automorphism)


def test_coset_quandle_from_perm_group():
    # Sym(3), and the dihedral group of order 8 inside Sym(4)
    for gens in ([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])],
                 [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])]):
        group = q.PermGroup(gens)
        n = group.order()
        identity_map = list(range(n))
        quandle = validated(q.coset_quandle(group, [0], identity_map))
        assert quandle.size == n
        assert quandle.table == q.projection_quandle(n).table
        # the group is held as the composition table of the sorted image tuples
        coeff, images = quandle.group, sorted(group.elements())
        assert [coeff.perm_images(a) for a in range(n)] == images
        assert all(coeff.perm_images(coeff.mul(a, b)) == tuple(images[a][i] for i in images[b])
                   for a in range(n) for b in range(n))


def test_coset_quandle_takes_one_shot_image_iterators():
    # conjugation by s = (0 1) on Sym(3), which fixes the subgroup {1, s}
    s = from_cycles(3, [(0, 1)])
    group = q.PermGroup([s, from_cycles(3, [(0, 1, 2)])])
    images = [_after(_after(s, p), _inverse(s)) for p in sorted(group.elements())]
    subgroup = [(0, 1, 2), s]
    expected = validated(q.coset_quandle(group, subgroup, images))
    assert expected.size == 3
    # peeking at the first image must not consume it
    assert q.coset_quandle(group, iter(subgroup), iter(images)) == expected
    assert q.coset_quandle(group, iter(subgroup), (p for p in images)) == expected


def test_coset_quandle_refuses_perms_outside_the_group():
    """A subgroup or automorphism image tuple that is no group element is a
    ValueError naming it, not a KeyError."""
    group = q.PermGroup([(1, 0, 2)])
    with pytest.raises(ValueError, match=r"\(0, 2, 1\)"):
        q.coset_quandle(group, [(0, 2, 1)], [0, 1])
    with pytest.raises(ValueError, match=r"\(1, 2, 0\)"):
        q.coset_quandle(group, [(0, 1, 2)], [(0, 1, 2), (1, 2, 0)])


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


def check_affine_construction(quandle):
    """The axioms, the formula x + alpha(y - x) and connectivity, re-proved
    on the table that AffineQuandle builds without validating it."""
    group, alpha = quandle.group, quandle.alpha
    assert _validate_table(quandle.table)[0] == quandle.table
    elems = group.elements()
    for x, xe in enumerate(elems):
        assert [elems[v] for v in quandle.table[x]] == [
            group.add(xe, alpha(group.sub(ye, xe))) for ye in elems
        ]
    assert q.affine_is_connected(group, alpha) == quandle.is_connected()


def test_affine_construction_on_corpus():
    for _, moduli, matrix in AFFINE_CORPUS_DEFS:
        group = q.FinAbGroup(moduli)
        check_affine_construction(q.AffineQuandle(group, q.AbHom(group, group, matrix)))


def test_affine_table_is_built_on_first_read(monkeypatch):
    # construction, the size and pi1 need no table; the table read afterwards
    # is the one check_affine_construction proves, and it is built once
    for _, moduli, matrix in AFFINE_CORPUS_DEFS:
        group = q.FinAbGroup(moduli)
        with monkeypatch.context() as patch:
            patch.setattr(q.FinAbGroup, "cayley_table", refuse_table)
            quandle = q.AffineQuandle(group, q.AbHom(group, group, matrix))
            assert quandle.size == group.order
            q.pi1_affine(quandle)
            with pytest.raises(AttributeError):
                quandle.no_such_attribute
        check_affine_construction(quandle)
        assert quandle.table is quandle.table


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
    check_affine_construction(q.AffineQuandle(group, alpha))


def test_affine_is_connected():
    z5 = q.FinAbGroup((5,))
    assert q.affine_is_connected(z5, q.AbHom.scaling(z5, 2))
    z4 = q.FinAbGroup((4,))
    assert not q.affine_is_connected(z4, q.AbHom.scaling(z4, 3))
    z9 = q.FinAbGroup((9,))
    assert q.affine_is_connected(z9, q.AbHom.scaling(z9, 2))


def test_affine_is_connected_builds_one_hom(monkeypatch):
    """1 - alpha is one AbHom with entries delta_ij - alpha_ij, and its answer
    is that of the subtraction; a hom of another group is refused with the
    subtraction's error."""
    built = []
    init = q.AbHom.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    for _, moduli, matrix in AFFINE_CORPUS_DEFS:
        group = q.FinAbGroup(moduli)
        alpha = q.AbHom(group, group, matrix)
        for hom in (alpha, q.AbHom.identity(group), q.AbHom.scaling(group, 2)):
            expected = (q.AbHom.identity(group) - hom).is_automorphism()
            with monkeypatch.context() as patch:
                patch.setattr(q.AbHom, "__init__", counting_init)
                assert q.affine_is_connected(group, hom) == expected
            assert len(built) == 1
            built.clear()
    z3, z5 = q.FinAbGroup((3,)), q.FinAbGroup((5,))
    with pytest.raises(ValueError, match="homomorphisms must share source and target"):
        q.affine_is_connected(z3, q.AbHom.scaling(z5, 2))


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
        section = quandle.table
        for y in range(quandle.size):
            for x in range(quandle.size):
                conj = _after(_after(section[y], section[x]), _inverse(section[y]))
                assert conj == section[quandle.op(y, x)]


def test_doubly_transitive_have_full_cycle_translation(doubly_transitive_corpus):
    for name, quandle in doubly_transitive_corpus:
        lengths = map(len, cycles(quandle.table[0]))
        assert sorted(lengths, reverse=True) == [quandle.size - 1, 1], name


def test_doubly_transitive_matches_pair_orbit(affine_corpus):
    quandles = [
        *affine_corpus,
        *((f"proj{n}", q.projection_quandle(n)) for n in range(1, 5)),
        ("transpositions4", transposition_quandle(4)),
        ("aff27", primitive_affine(27)),
        ("aff32", primitive_affine(32)),
    ]
    for name, quandle in quandles:
        n = quandle.size
        expected = n >= 2 and reference_is_doubly_transitive(quandle.table, n)
        assert quandle.is_doubly_transitive() == expected, name


def test_lmlt_order_of_connected_affine(affine_corpus, doubly_transitive_corpus):
    # LMlt(Aff(G, alpha)) is the translations of G extended by <alpha>
    fields = [(f"aff{order}", primitive_affine(order)) for order in PRIMITIVE_FIELDS]
    for name, quandle in affine_corpus + fields:
        assert quandle.lmlt().order() == quandle.size * automorphism_order(quandle.alpha), name
    # any two points generate Aff(F_q, omega)
    for name, quandle in doubly_transitive_corpus + fields:
        assert len(quandle.lmlt().generators) == 2, name


def test_lmlt_generators_give_the_group_of_all_rows(small_affine_corpus):
    quandles = [
        *small_affine_corpus,
        ("proj3", q.projection_quandle(3)),
        ("transpositions4", transposition_quandle(4)),
    ]
    for name, quandle in quandles:
        assert closure(quandle.lmlt().generators) == closure(quandle.table), name


def test_lmlt_predicates_read_at_the_generating_set_match_every_row(affine_corpus, q4):
    """is_connected and col_count read the LMlt orbits off the rows of the
    generating set, and semiregular_length one row per orbit; the
    references read all n rows. The conjugation quandle of Sym(3) without
    its identity has translation cycles of lengths 2 and 3."""
    sym3 = sorted(q.PermGroup([(1, 0, 2), (1, 2, 0)]).elements())
    trivial_cover = q.extend(q4, q.trivial_cocycle(q4, q.CoeffGroup.symmetric(2))).total
    quandles = [
        *affine_corpus,
        *((f"proj{n}", q.projection_quandle(n)) for n in range(1, 5)),
        ("transpositions4", transposition_quandle(4)),
        ("sym3_without_identity", q.conjugation_quandle(sym3[1:])),
        ("q4_trivial_sym2_cover", trivial_cover),
    ]
    trefoil = parse_gauss(GAUSS_CODES["trefoil_right"])
    semiregular = set()
    for name, quandle in quandles:
        n = quandle.size
        index, blocks = orbits(quandle.table, n)
        assert quandle.is_connected() == (len(blocks) == 1), name
        lengths = {length for row in quandle.table for length in cycle_lengths(row)} - {1}
        expected = None if len(lengths) > 1 else max(lengths, default=1)
        assert quandle.semiregular_length() == expected, name
        semiregular.add(expected)
        count = len(reference_colorings(trefoil, quandle)) - n
        assert col_count(trefoil, quandle) == count, name
        # col_count weights each orbit's search by its size
        assert quandle._lmlt_orbits() == (index, blocks), name
    assert not trivial_cover.is_connected()
    assert {None, 1, 2, 3} <= semiregular


def test_are_isomorphic_examples(r3):
    relabeled = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    assert q.are_isomorphic(q.Quandle(relabeled), r3)
    assert not q.are_isomorphic(r3, q.projection_quandle(3))
    # 9! bijections stay within the node budget; 13 points pass the size cap
    assert q.are_isomorphic(q.projection_quandle(9), q.projection_quandle(9))
    with pytest.raises(BudgetExceeded):
        q.are_isomorphic(q.projection_quandle(13), q.projection_quandle(13))


def test_are_isomorphic_matches_reference(small_affine_corpus):
    """Every same-size pair among the corpus quandles of at most 7 points
    and their relabelings, against the brute force over all bijections."""
    quandles = [quandle for _, quandle in small_affine_corpus if quandle.size <= 7]
    quandles += [relabel(quandle, seed) for seed, quandle in enumerate(quandles)]
    isomorphic = 0
    for first in quandles:
        for second in quandles:
            if first.size == second.size:
                expected = reference_are_isomorphic(first, second)
                assert q.are_isomorphic(first, second) == expected
                isomorphic += expected
    assert len(quandles) < isomorphic < sum(
        first.size == second.size for first in quandles for second in quandles)


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


def test_restrict_subquandle(q4):
    sub = q4.restrict([0])
    assert sub.size == 1
    with pytest.raises(ValueError):
        q4.restrict([0, 1])
    # points outside 0..n-1, negative ones included, are refused, not wrapped
    for quandle, subset in (
        (q.projection_quandle(3), [-1, 2]),
        (q.dihedral_quandle(3), [0, 7]),
        (q.projection_quandle(3), [True, 0]),
        (q.projection_quandle(3), [0.0, 1]),
    ):
        with pytest.raises(ValueError, match="not a set of points"):
            quandle.restrict(subset)


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


def validated_rows(table):
    return _validate_table(table)[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_table_matches_reference(affine_corpus, data):
    """On corrupted tables the validator raises the reference's first violation."""
    _, quandle = data.draw(st.sampled_from(affine_corpus))
    table = corrupt(data, quandle.table, range(quandle.size))
    assert outcome(validated_rows, table) == outcome(reference_validate_table, table)


@pytest.fixture(scope="module")
def swap_corpus(affine_corpus):
    """Quandles whose generating sets differ: the affine corpus (two or three
    points), projection quandles (every point), the transpositions of Sym(4)
    (not latin) and the conjugation quandle of Sym(3) minus the identity,
    with a component of 3 transpositions and one of 2 three-cycles."""
    sym3 = sorted(q.PermGroup([(1, 0, 2), (1, 2, 0)]).elements())
    return [
        *(quandle for _, quandle in affine_corpus),
        *(q.projection_quandle(n) for n in (3, 4, 6)),
        transposition_quandle(4),
        q.conjugation_quandle(sym3[1:]),
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_table_matches_reference_past_the_row_checks(swap_corpus, data):
    """A swap off the diagonal keeps the rows permutations and the table
    idempotent, so only distributivity decides: the check on a generating
    set accepts exactly the tables the full scan accepts, and a rejected
    table carries the full scan's least witness."""
    table = data.draw(off_diagonal_swap(data.draw(st.sampled_from(swap_corpus)).table))
    assert outcome(validated_rows, table) == outcome(reference_validate_table, table)
