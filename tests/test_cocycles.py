import json
import math
import re
import time
from functools import partial
from itertools import product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import quandles as q
import quandles.cocycles as cmod
import quandles.core as core
import quandles.perms as perms
from quandles.abelian import FinAbGroup
from quandles.cocycles import (
    CoeffGroup,
    ConstantCocycle,
    cocycle_from_json,
    cocycle_to_json,
    cocycle_witness,
    normalized_cocycles,
    pair_map,
    parse_coeff_descriptor,
)
from quandles.core import _validate_group_table
from quandles.errors import BudgetExceeded, InvalidCocycle, NotLatin
from conftest import (
    PRIMITIVE_FIELDS,
    apply_pair,
    automorphism_order,
    beta_a_table,
    companion,
    corrupt,
    endomorphism,
    galkin_quandle,
    least_budget,
    off_diagonal_swap,
    outcome,
    pair_map_k,
    presentation_abelianized,
    presentation_kernel,
    presentation_rows,
    primitive_affine,
    primitive_polynomial,
    reference_cocycle_witness,
    reference_fgh_blocks,
    reference_validate_group_table,
    reference_latin_cohomologous,
    reference_h2c,
    reference_normalized_cocycles,
    reference_normalized_vectors,
    reference_pair_partition,
    reference_weak_cocycle_check,
    refuse_closure,
    refuse_table,
    relabel,
)

# a loop (quasigroup with identity) that is not a group
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def brute_force_cocycles(quandle, coeff):
    """Independent oracle: try every off-diagonal value table."""
    n = quandle.size
    e = coeff.identity
    cells = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for assignment in product(range(coeff.order), repeat=len(cells)):
        values = [[e] * n for _ in range(n)]
        for (x, y), v in zip(cells, assignment):
            values[x][y] = v
        if cocycle_witness(quandle, coeff, values) is None:
            out.append(tuple(tuple(r) for r in values))
    return out


def test_symmetric_coeff_group():
    for points, order, class_sizes in ((3, 6, [1, 2, 3]), (4, 24, [1, 3, 6, 6, 8])):
        sym = CoeffGroup.symmetric(points)
        assert sym.order == order
        assert sym.points == points
        e = sym.identity
        assert all(sym.mul(e, a) == a == sym.mul(a, e) for a in range(order))
        for a in range(order):
            assert sym.mul(a, sym.inv(a)) == e
        # composition matches permutation composition
        for a in range(order):
            pa = sym.perm_images(a)
            for b in range(order):
                pb = sym.perm_images(b)
                assert sym.perm_images(sym.mul(a, b)) == tuple(pa[i] for i in pb)
        sizes = sorted(len(c) for c in sym.conjugacy_classes())
        assert sizes == class_sizes


def test_conjugacy_classes_are_conjugation_orbits():
    """Classes and class representatives against the set of all conjugates
    of each element, on Sym(1..5), abelian and Cayley-table groups."""
    s3 = CoeffGroup.symmetric(3)
    groups = [CoeffGroup.symmetric(k) for k in range(1, 6)]
    groups += [CoeffGroup.abelian(m) for m in ((2,), (4,), (2, 2), (2, 3))]
    groups.append(CoeffGroup.from_cayley([[s3.mul(a, b) for b in range(6)] for a in range(6)]))
    for g in groups:
        expected = sorted({tuple(sorted({g.conj(s, a) for s in range(g.order)}))
                           for a in range(g.order)})
        assert list(g.conjugacy_classes()) == expected, g
        assert len(g.conjugations()) == len(set(g.conjugations()))
        for cls_ in expected:
            assert all(g.class_rep(a) == cls_[0] for a in cls_)
        # an element follows the index rule: 1.0 leaked a TypeError
        for a in (-1, g.order, 1.0, True):
            with pytest.raises(ValueError, match="no element"):
                g.class_rep(a)


def test_coeff_order_cap_checked_before_enumeration(monkeypatch):
    """Coefficient groups and coset quandles share the order cap, which
    applies before any element is listed or any table is built."""
    monkeypatch.setattr(perms, "closure", refuse_closure)
    monkeypatch.setattr(FinAbGroup, "cayley_table", refuse_table)
    sym7 = q.PermGroup([perms.Perm.from_cycles(7, [(0, 1)]), perms.Perm([*range(1, 7), 0])])
    huge = FinAbGroup((100000, 100000))
    for build in (
        lambda: CoeffGroup.symmetric(11),
        lambda: CoeffGroup.abelian((100000, 100000)),
        lambda: parse_coeff_descriptor("Sym(7)"),
        lambda: q.coset_quandle(sym7, [perms.Perm.identity(7)], range(5040)),
        lambda: q.coset_quandle(huge, [huge.zero], q.AbHom.identity(huge)),
    ):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            build()
        assert time.perf_counter() - start < 1.0


def test_abelian_coeff_group():
    z22 = CoeffGroup.abelian((2, 2))
    assert z22.order == 4
    assert z22.identity == 0
    assert all(z22.mul(a, b) == z22.mul(b, a) for a in range(4) for b in range(4))
    assert all(len(c) == 1 for c in z22.conjugacy_classes())
    assert z22 == CoeffGroup.abelian(FinAbGroup((2, 2)))
    assert CoeffGroup.symmetric(2) != CoeffGroup.abelian((2,))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 8), max_size=3))
def test_abelian_table_matches_tuple_arithmetic(moduli):
    group = FinAbGroup(tuple(moduli))
    elems = group.elements()
    table = group.cayley_table()
    assert all(
        table[i][j] == group.index_of(group.add(x, y))
        for i, x in enumerate(elems)
        for j, y in enumerate(elems)
    )
    coeff = CoeffGroup.abelian(group)
    assert coeff.table == table
    assert coeff.inverses == tuple(group.index_of(group.neg(x)) for x in elems)


def test_cayley_coeff_group():
    z2 = CoeffGroup.from_cayley([[0, 1], [1, 0]], labels=["e", "t"])
    assert z2.order == 2
    assert z2.label(1) == "t"
    assert z2.index_of_label("t") == 1
    with pytest.raises(ValueError):
        CoeffGroup.from_cayley([[0, 1], [0, 1]])  # no identity
    with pytest.raises(ValueError):
        CoeffGroup.from_cayley(NONASSOCIATIVE_LOOP)
    # entries are ints, never truncated floats or bools, in rows of a list
    for table in ([[0.0, 1.9], [True, 0]], 5, [[0, 1], 5]):
        with pytest.raises(ValueError):
            CoeffGroup.from_cayley(table)


def test_associativity_witness_scan_is_budgeted(monkeypatch):
    """A Cayley table that fails Light's test is scanned row by row for its
    least witness, under a budget of triples. The default covers a full scan
    at every order up to 464; past the budget the scan raises BudgetExceeded."""
    table = [list(row) for row in CoeffGroup.abelian((6,)).table]
    table[2][1], table[2][5] = table[2][5], table[2][1]
    message = "group table is not associative at (1, 1, 1)"
    assert outcome(reference_validate_group_table, table) == ("raise", ValueError, (message,))
    assert core.MAX_ASSOCIATIVITY_STEPS >= 464**3
    # the witness lies in row a = 1: the scan needs (a + 1) * 6 * 6 triples
    for budget in (core.MAX_ASSOCIATIVITY_STEPS, 2 * 36):
        monkeypatch.setattr(core, "MAX_ASSOCIATIVITY_STEPS", budget)
        with pytest.raises(ValueError, match=re.escape(message)):
            CoeffGroup.from_cayley(table)
    monkeypatch.setattr(core, "MAX_ASSOCIATIVITY_STEPS", 2 * 36 - 1)
    with pytest.raises(BudgetExceeded, match="associativity"):
        CoeffGroup.from_cayley(table)


def test_parse_coeff_descriptor():
    assert parse_coeff_descriptor("Sym(3)").order == 6
    assert parse_coeff_descriptor("S2").order == 2
    assert parse_coeff_descriptor("Z 2 x Z 2").order == 4
    assert parse_coeff_descriptor("Z2").order == 2
    assert parse_coeff_descriptor("trivial").order == 1
    with pytest.raises(ValueError):
        parse_coeff_descriptor("dihedral(4)")


def test_trivial_cocycle_everywhere(small_affine_corpus, small_coeffs):
    for _, quandle in small_affine_corpus:
        for _, coeff in small_coeffs:
            beta = q.trivial_cocycle(quandle, coeff)
            assert cocycle_witness(quandle, coeff, beta.values) is None


def test_beta_a_is_cocycle(q4):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    assert beta.is_normalized(0)
    assert reference_weak_cocycle_check(beta)


def test_cq_witness(q4):
    z2 = CoeffGroup.abelian((2,))
    values = [[0] * 4 for _ in range(4)]
    values[2][2] = 1
    assert cocycle_witness(q4, z2, values) == ("diagonal", (2,))
    with pytest.raises(InvalidCocycle):
        ConstantCocycle(q4, z2, values)


@pytest.mark.parametrize("entry", [0.9, True, 1.0])
def test_cocycle_entries_must_be_indices(r3, entry):
    # [[0.9] * 3] * 3 was truncated to the trivial cocycle
    with pytest.raises(ValueError, match="element indices"):
        ConstantCocycle(r3, CoeffGroup.symmetric(2), [[entry] * 3] * 3)


def test_cc_witness_is_a_real_violation(r3):
    s2 = CoeffGroup.symmetric(2)
    values = [[s2.identity] * 3 for _ in range(3)]
    values[1][2] = 1 - s2.identity
    witness = cocycle_witness(r3, s2, values)
    assert witness is not None and witness[0] == "cocycle"
    x, y, z = witness[1]
    t = r3.table
    left = s2.mul(values[t[x][y]][t[x][z]], values[x][z])
    right = s2.mul(values[x][t[y][z]], values[y][z])
    assert left != right


def test_weak_check_on_enumerated_cocycles(r3):
    s2 = CoeffGroup.symmetric(2)
    for table in brute_force_cocycles(r3, s2):
        assert reference_weak_cocycle_check(ConstantCocycle(r3, s2, table))


def checked_normalize(beta, u):
    """normalize, after the full cocycle check of the twist it builds
    unchecked."""
    normalized = q.normalize(beta, u)
    assert normalized.is_normalized(u)
    assert reference_cocycle_witness(beta.quandle, beta.coeff, normalized.values) is None
    return normalized


def test_normalize_fixes_column(r3):
    s2 = CoeffGroup.symmetric(2)
    for table in brute_force_cocycles(r3, s2):
        beta = ConstantCocycle(r3, s2, table)
        for u in range(r3.size):
            assert q.are_cohomologous(beta, checked_normalize(beta, u))
    trivial = q.trivial_cocycle(r3, s2)
    assert q.normalize(trivial, 0) == trivial


def test_normalize_is_identity_on_normalized(q4):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    assert checked_normalize(beta, 0) == beta
    s3 = CoeffGroup.symmetric(3)
    for cocycle in [beta, *normalized_cocycles(q4, s3, 0)]:
        for u in range(q4.size):
            assert q.are_cohomologous(cocycle, checked_normalize(cocycle, u))
    # a base point is a point: -1 would normalize at 3
    for u in (-1, 4, 2.0, True):
        with pytest.raises(ValueError):
            q.normalize(beta, u)


def test_normalize_needs_latin():
    proj = q.projection_quandle(2)
    beta = q.trivial_cocycle(proj, CoeffGroup.symmetric(2))
    with pytest.raises(NotLatin):
        q.normalize(beta, 0)


def test_conjugate_cocycle(q4):
    s3 = CoeffGroup.symmetric(3)
    trivial = q.trivial_cocycle(q4, s3)
    for sigma in range(6):
        assert q.conjugate_cocycle(trivial, sigma) == trivial
    transposition = next(
        a for a in range(6) if a != s3.identity and s3.mul(a, a) == s3.identity
    )
    beta = ConstantCocycle(q4, s3, beta_a_table(q4, s3, transposition))
    sigma = 5
    conj = q.conjugate_cocycle(beta, sigma)
    expected = beta_a_table(q4, s3, s3.conj(sigma, transposition))
    assert conj.values == tuple(tuple(r) for r in expected)
    # sigma follows the index rule: -1 and true were taken as elements, 6
    # leaked an IndexError and 1.0 a TypeError
    for sigma in (-1, True, 6, 1.0):
        with pytest.raises(ValueError, match="no element"):
            q.conjugate_cocycle(beta, sigma)


def test_cohomologous_reflexive(q4):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    assert q.are_cohomologous(beta, beta)


def test_cohomologous_symmetric_group_conjugate_values(q4):
    s2 = CoeffGroup.symmetric(2)
    swap = 1 - s2.identity
    beta = ConstantCocycle(q4, s2, beta_a_table(q4, s2, swap))
    assert q.are_cohomologous(beta, beta)
    assert not q.are_cohomologous(beta, q.trivial_cocycle(q4, s2))


def test_cohomologous_abelian_distinct_values(q4):
    z22 = CoeffGroup.abelian((2, 2))
    betas = [
        ConstantCocycle(q4, z22, beta_a_table(q4, z22, a)) for a in range(4)
    ]
    for a in range(1, 4):
        for b in range(1, 4):
            assert q.are_cohomologous(betas[a], betas[b]) == (a == b)


def assert_cohomologous_matches_reference(b1, b2):
    """The gamma witness agrees with the normalization reference and twists
    b1 into b2."""
    witness = cmod.cohomologous(b1, b2)
    assert (witness is not None) == reference_latin_cohomologous(b1, b2)
    if witness is not None:
        assert witness["kind"] == "gamma"
        twisted = cmod._twist(b1, list(witness["gamma"]))
        assert tuple(tuple(r) for r in twisted) == b2.values


def test_cohomologous_general_path_matches_latin(r3):
    s2 = CoeffGroup.symmetric(2)
    cocycles = [ConstantCocycle(r3, s2, t) for t in brute_force_cocycles(r3, s2)]
    for b1 in cocycles:
        for b2 in cocycles:
            assert_cohomologous_matches_reference(b1, b2)


def test_cohomologous_matches_latin_reference_on_corpus(affine_corpus):
    """h2c representatives against normalized cocycles and their twists
    (|X| <= 9, Sym(2..4)): each cocycle lies in exactly one class."""
    for name, quandle in affine_corpus:
        n = quandle.size
        if n > 9:
            continue
        for points in (2, 3, 4):
            s = CoeffGroup.symmetric(points)
            reps = q.h2c(quandle, s)
            cocycles = []
            for beta in normalized_cocycles(quandle, s, 0):
                cocycles.append(beta)
                for c in (1, 2):
                    gamma = [(c * x + 1) % s.order for x in range(n)]
                    cocycles.append(ConstantCocycle(quandle, s, cmod._twist(beta, gamma)))
            for b1 in reps:
                for b2 in reps:
                    assert_cohomologous_matches_reference(b1, b2)
                    assert q.are_cohomologous(b1, b2) == (b1 == b2), (name, points)
            for beta in cocycles:
                for rep in reps:
                    assert_cohomologous_matches_reference(beta, rep)
                    assert_cohomologous_matches_reference(rep, beta)
                assert sum(q.are_cohomologous(beta, rep) for rep in reps) == 1, (name, points)


def test_cohomologous_checks_every_pair(q4):
    """A twist of beta changed at any one pair is cohomologous to beta in
    neither order, so the propagation must check every pair (x, y)."""
    z22 = CoeffGroup.abelian((2, 2))
    beta = ConstantCocycle(q4, z22, beta_a_table(q4, z22, 1))
    twisted = cmod._twist(beta, [0, 1, 2, 3])
    for x, y in product(range(q4.size), repeat=2):
        for value in range(z22.order):
            if value != twisted[x][y]:
                table = [list(row) for row in twisted]
                table[x][y] = value
                broken = ConstantCocycle(q4, z22, table, _checked=True)
                assert cmod.cohomologous(beta, broken) is None, (x, y, value)
                assert cmod.cohomologous(broken, beta) is None, (x, y, value)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_twists_are_cohomologous(q4, data):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    gamma = data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    twisted = ConstantCocycle(q4, z2, cmod._twist(beta, gamma))
    witness = cmod.cohomologous(beta, twisted)
    assert witness is not None


def test_pair_maps_examples(r3):
    f, g, h = (pair_map(r3, 0, which) for which in "fgh")
    assert apply_pair(f, (1, 2)) == (1, 2)  # fixed because 2 = 1*0
    assert apply_pair(g, (1, 2)) == (2, 1)
    assert apply_pair(h, (1, 2)) == (0, 2)
    # a base point is a point, in the maps and so in full_partition and h2c
    s2 = CoeffGroup.symmetric(2)
    for u in (-1, 3, 1.0, True):
        for call in (lambda: pair_map(r3, u, "g"), lambda: q.full_partition(r3, u),
                     lambda: q.h2c(r3, s2, u=u)):
            with pytest.raises(ValueError, match="base point"):
                call()


def test_pair_maps_require_latin():
    with pytest.raises(NotLatin):
        pair_map(q.projection_quandle(2), 0, "g")


def test_h_and_k_are_inverse(small_affine_corpus):
    for _, quandle in small_affine_corpus:
        h = pair_map(quandle, 0, "h")
        k = pair_map_k(quandle, 0)
        n = quandle.size
        for x in range(n):
            for y in range(n):
                assert k(apply_pair(h, (x, y))) == (x, y)
                assert apply_pair(h, k((x, y))) == (x, y)


def test_pair_maps_are_bijections(small_affine_corpus):
    for _, quandle in small_affine_corpus:
        for which in "fgh":
            q.Perm(pair_map(quandle, 0, which))  # the constructor validates bijectivity


def test_affine_h_is_translation(small_affine_corpus):
    for _, quandle in small_affine_corpus:
        group = quandle.group
        h = pair_map(quandle, 0, "h")
        for x, xe in enumerate(group.elements()):
            for y, ye in enumerate(group.elements()):
                expected = (group.index_of(group.add(ye, xe)), y)
                assert apply_pair(h, (x, y)) == expected


def test_g_orbit_sizes(r3):
    part = q.full_partition(r3, 0, "g")
    assert part.blocks[part.index[0 * 3 + 0]] == (0,)
    assert len(part.blocks[part.index[1 * 3 + 2]]) == 2
    # lcm law: |O_g(x, y)| = lcm of the translation-orbit sizes of x and y
    l0 = r3.left_section[0]
    import math

    for block in part.blocks:
        x, y = divmod(block[0], 3)
        assert len(block) == math.lcm(len(l0.orbit_of(x)), len(l0.orbit_of(y)))


def test_full_partition_matches_reference(affine_corpus):
    """The flat-array orbits against the formula BFS, for every nonempty
    subset of "fgh", at every base point when |X| <= 9 and at 0 above."""
    subsets = ["".join(c for c, bit in zip("fgh", bits) if bit)
               for bits in product((0, 1), repeat=3) if any(bits)]
    for name, quandle in affine_corpus:
        n = quandle.size
        for u in range(n) if n <= 9 else (0,):
            for gens in subsets:
                part = q.full_partition(quandle, u, gens)
                expected = reference_pair_partition(quandle, u, gens)
                assert part.blocks == expected, (name, u, gens)
                for i, block in enumerate(part.blocks):
                    assert all(part.index[p] == i for p in block)


@pytest.fixture(scope="module")
def galkin_corpus():
    """Galkin quandles G(Z_m, c), m in {3, 5, 7}: latin, and not affine for
    m = 5 and 7."""
    out = [(f"galkin({m}, {c})", galkin_quandle(m, c)) for m in (3, 5, 7) for c in range(m)]
    for name, quandle in out:
        assert quandle.is_latin and quandle.is_connected(), name
    return out


def test_fgh_orbits_match_reference(affine_corpus, galkin_corpus):
    """The orbits read off the cycles of L_u against the breadth-first orbits
    of the three image tuples, at every base point: on the corpus, its
    relabelings, the Galkin quandles and the one-point quandle. The sizes
    come along."""
    quandles = [quandle for _, quandle in affine_corpus + galkin_corpus]
    quandles += [relabel(quandle, seed) for seed, quandle in enumerate(quandles)]
    quandles.append(q.projection_quandle(1))
    for quandle in quandles:
        t = quandle.table
        for u in range(quandle.size):
            block, sizes = cmod._fgh_orbits(quandle, u)
            assert block == reference_fgh_blocks(quandle, u), (t, u)
            assert sizes == [block.count(i) for i in range(len(sizes))], (t, u)


def test_normalized_vectors_match_every_x_reference(affine_corpus, galkin_corpus):
    """The instances at x in S \\ {u}, with every pinned orbit in one variable,
    give the block, the vectors and the least node budget of the instances at
    every x != u with one variable per orbit: on the corpus, its relabelings,
    the Galkin quandles and the one-point quandle, at a base point in the
    generating set S and at one outside it."""
    quandles = [quandle for _, quandle in affine_corpus + galkin_corpus]
    quandles += [relabel(quandle, seed) for seed, quandle in enumerate(quandles)]
    quandles.append(q.projection_quandle(1))
    coeffs = [CoeffGroup.abelian((2,)), CoeffGroup.abelian((3,)), CoeffGroup.symmetric(3)]
    for quandle in quandles:
        gens = quandle._generating_set()
        outside = [u for u in range(quandle.size) if u not in gens]
        for u in [gens[-1]] + outside[:1]:
            for coeff in coeffs:
                vectors = partial(cmod._normalized_vectors, quandle, coeff, u)
                expected = partial(reference_normalized_vectors, quandle, coeff, u)
                nodes = least_budget(vectors)
                assert vectors(nodes) == expected(nodes), (quandle.table, u, coeff)
                with pytest.raises(BudgetExceeded):
                    expected(nodes - 1)


def test_galkin_h2c_counts_hom_classes(galkin_corpus):
    """h2c on the first latin corpus that is not affine, against the reference
    tables, with pi1 = Z_m: the classes are Hom(Z_m, G) up to conjugacy,
    gcd(m, p) of them over Z_p, and over Sym(3) the trivial one and, at m = 3,
    the 3-cycles."""
    groups = [(CoeffGroup.abelian((p,)), p) for p in (2, 3, 5, 7)]
    groups.append((CoeffGroup.symmetric(3), None))
    for name, quandle in galkin_corpus:
        m = quandle.size // 3
        for coeff, p in groups:
            reps = [rep.values for rep in q.h2c(quandle, coeff)]
            assert reps == reference_h2c(quandle, coeff), (name, coeff)
            assert len(reps) == (math.gcd(m, p) if p else 1 + (m == 3)), (name, coeff)


def test_f_and_h_commute_with_g(affine_corpus, galkin_corpus):
    """L_u is an automorphism that fixes u, so f and h commute with
    g = L_u x L_u, as image tuples over the pair ids."""
    for name, quandle in affine_corpus + galkin_corpus:
        for u in (0, quandle.size - 1):
            g = pair_map(quandle, u, "g")
            for which in "fh":
                other = pair_map(quandle, u, which)
                assert tuple(map(other.__getitem__, g)) == tuple(map(g.__getitem__, other)), (
                    name, u, which)


def test_h2c_least_node_budget_is_pinned():
    """The least budget at which h2c succeeds, which is the number of search
    nodes, and the number of classes, on quandles with several classes. The
    instances are collected at the generating points other than u only, and
    these numbers are the ones a search that collects them at every x needs
    too. Q(Z_5^2, -1) and G(Z_5, 1) have the heaviest instance builds."""
    aff = q.affine_quandle
    q4 = aff(FinAbGroup((2, 2)), [[1, 1], [1, 0]])
    z3sq_neg = aff(FinAbGroup((3, 3)), [[2, 0], [0, 2]])
    z4sq = aff(FinAbGroup((4, 4)), [[0, 3], [1, 3]])
    z5sq_neg = aff(FinAbGroup((5, 5)), [[4, 0], [0, 4]])
    galkin_5_1 = galkin_quandle(5, 1)
    cases = [
        (q4, CoeffGroup.symmetric(5), 27, 3),
        (q4, CoeffGroup.symmetric(4), 11, 3),
        (z3sq_neg, CoeffGroup.symmetric(4), 10, 2),
        (z3sq_neg, CoeffGroup.abelian((3, 3)), 10, 9),
        (z4sq, CoeffGroup.symmetric(3), 5, 2),
        (z4sq, CoeffGroup.abelian((2,)), 3, 2),
        (z5sq_neg, CoeffGroup.abelian((5,)), 6, 5),
        (galkin_5_1, CoeffGroup.abelian((5,)), 6, 5),
        (z5sq_neg, CoeffGroup.symmetric(5), 26, 2),
        (galkin_5_1, CoeffGroup.symmetric(5), 26, 2),
    ]
    for quandle, coeff, nodes, classes in cases:
        for u in (0, quandle.size - 1):
            assert len(q.h2c(quandle, coeff, u, node_budget=nodes)) == classes
            with pytest.raises(BudgetExceeded):
                q.h2c(quandle, coeff, u, node_budget=nodes - 1)


def test_h2c_canonicalizes_each_class_once(q4, monkeypatch):
    """The first cocycle met of each class is canonicalized, and all its
    conjugates are marked seen: one minimum per class, not per cocycle."""
    calls = []
    monkeypatch.setattr(cmod, "min", lambda *args, **kwargs: calls.append(1) or min(*args, **kwargs),
                        raising=False)
    z3sq_neg = q.affine_quandle(FinAbGroup((3, 3)), [[2, 0], [0, 2]])
    for quandle, coeff, cocycles, classes in [
        (q4, CoeffGroup.symmetric(5), 26, 3),
        (z3sq_neg, CoeffGroup.symmetric(4), 9, 2),
        (z3sq_neg, CoeffGroup.abelian((3, 3)), 9, 9),
    ]:
        assert len(normalized_cocycles(quandle, coeff)) == cocycles
        calls.clear()
        assert len(q.h2c(quandle, coeff)) == classes
        assert len(calls) == classes


def test_galkin_cocycles_match_reference(galkin_corpus):
    """On latin quandles that are not affine, the search over the fgh-orbits
    gives the normalized cocycles of the n^3 reference, and h2c the least
    table of each class."""
    coeffs = [CoeffGroup.abelian((3,)), CoeffGroup.abelian((5,)), CoeffGroup.symmetric(3)]
    for name, quandle in galkin_corpus:
        if quandle.size > 15:
            continue
        for coeff in coeffs:
            for u in (0, quandle.size - 1):
                found = [beta.values for beta in normalized_cocycles(quandle, coeff, u)]
                expected = [beta.values for beta in reference_normalized_cocycles(quandle, coeff, u)]
                assert found == expected, (name, coeff, u)
                reps = [rep.values for rep in q.h2c(quandle, coeff, u)]
                assert reps == reference_h2c(quandle, coeff, u), (name, coeff, u)


def test_orbit_presentation_abelianizes_to_pi1(affine_corpus):
    """H^2 over G is Hom(pi1, G) up to conjugacy (Eisermann, Trans. AMS 366,
    2014), so P(Q, u)^ab, by the Smith form of its relation rows, is pi1 of
    the affine quandle from (G, alpha): on the corpus and Q(Z_5^2, -1), at
    the base points 0 and n - 1."""
    z5sq_neg = q.affine_quandle(FinAbGroup((5, 5)), [[4, 0], [0, 4]])
    for name, quandle in affine_corpus + [("z5sq_neg", z5sq_neg)]:
        for u in (0, quandle.size - 1):
            assert presentation_abelianized(quandle, u) == q.pi1_affine(quandle), (name, u)


def test_galkin_presentation_abelianizes_to_z_m():
    """P(Q, u)^ab is Z_m on every Galkin quandle G(Z_m, c) with m odd up to 11,
    which are not affine, so no other pi1 routine reaches them."""
    for m in (3, 5, 7, 9, 11):
        for c in range(m):
            assert presentation_abelianized(galkin_quandle(m, c), 0) == (m,), (m, c)


def test_cocycles_over_z_p_are_the_presentation_kernel(affine_corpus, galkin_corpus):
    """Over Z_p the normalized cocycles are the kernel of the relation rows mod
    p, with e = 0: the same orbit vectors as the search, found by linear
    algebra alone."""
    for name, quandle in affine_corpus + galkin_corpus:
        for p in (2, 3, 5):
            _, vectors = cmod._normalized_vectors(
                quandle, CoeffGroup.abelian((p,)), 0, cmod.DEFAULT_H2C_NODE_BUDGET)
            assert vectors == presentation_kernel(quandle, 0, p), (name, p)


def test_connected_cyclic_affine_quandles_have_no_free_orbit():
    """The first theorem with no coefficient group: every connected Q(Z_m, k)
    with m < 50 has no free orbit, so every u-normalized cocycle is trivial
    and the quandle is simply connected."""
    count = 0
    for m in range(3, 50):
        for k in range(m):
            if math.gcd(k, m) == math.gcd(1 - k, m) == 1:
                quandle = q.affine_quandle(FinAbGroup((m,)), [[k]])
                assert max(presentation_rows(quandle, 0)[0]) == 0, (m, k)
                count += 1
    assert count == 412


def test_finite_field_quandles_have_the_doubly_transitive_free_orbits():
    """The doubly transitive theorem with no coefficient group, on Aff(F_q,
    omega) with omega primitive, for every prime power 3 <= q <= 512 with
    p <= 23: no free orbit for odd q, exactly one for q = 2^k, and P^ab
    trivial except for Z_2 at q = 4."""
    fields = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
              for k in range(1, 10) if 3 <= p ** k <= 512]
    assert len(fields) == 28
    for p, k in fields:
        group = FinAbGroup((p,) * k)
        quandle = q.affine_quandle(group, companion(primitive_polynomial(p, k)))
        assert max(presentation_rows(quandle, 0)[0]) == (p == 2), p ** k
        assert presentation_abelianized(quandle, 0) == ((2,) if p ** k == 4 else ()), p ** k


def test_homomorphic_images_are_cocycles(affine_corpus):
    """h2c representatives, conjugates and regular embeddings are built
    without a check: each is the image of a verified cocycle under a group
    homomorphism. Re-prove every one with the n^3 reference (|X| <= 9)."""
    coeffs = [CoeffGroup.symmetric(k) for k in (2, 3, 4)]
    coeffs += [CoeffGroup.abelian(m) for m in ((2,), (3,), (2, 2))]
    checked = 0
    for name, quandle in affine_corpus:
        n = quandle.size
        if n > 9:
            continue
        for coeff in coeffs:
            images = list(q.h2c(quandle, coeff))
            gamma = [(x + 1) % coeff.order for x in range(n)]
            for beta in normalized_cocycles(quandle, coeff, 0):
                for b in (beta, ConstantCocycle(quandle, coeff, cmod._twist(beta, gamma))):
                    images += [q.conjugate_cocycle(b, s) for s in range(coeff.order)]
                    if coeff.order <= 6:
                        images.append(q.embed_coeffs(b))
            for image in images:
                witness = reference_cocycle_witness(quandle, image.coeff, image.values)
                assert witness is None, (name, coeff, witness)
            checked += len(images)
    assert checked == 2622


def test_h_fixed_points(small_affine_corpus):
    for _, quandle in small_affine_corpus:
        h = pair_map(quandle, 0, "h")
        n = quandle.size
        for x in range(n):
            for y in range(n):
                assert (apply_pair(h, (x, y)) == (x, y)) == (y == 0)


def test_f_orbit_lengths(q4, r3):
    for quandle in (q4, r3):
        n = quandle.size
        for x in range(n):
            length = q.f_orbit_length(quandle, 0, x, quandle.op(x, 0))
            assert length == 1
        for x in range(n):
            for y in range(n):
                assert q.f_orbit_length(quandle, 0, x, y) != 2
    # all non-fixed pairs of the order-4 quandle lie on orbits of length 3
    for x in range(4):
        for y in range(4):
            if y != q4.op(x, 0):
                assert q.f_orbit_length(q4, 0, x, y) == 3
    # a pair outside X x X is refused; a negative pair id would never recur,
    # true answered for the pair (1, 0), and 1.0 leaked a TypeError
    for pair in ((-1, 0), (0, -1), (3, 0), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError):
            q.f_orbit_length(r3, 0, *pair)


def test_normalized_cocycles_match_brute_force(r3, q4):
    for quandle, coeff in [
        (r3, CoeffGroup.symmetric(2)),
        (q4, CoeffGroup.abelian((2,))),
    ]:
        expected = {
            table
            for table in brute_force_cocycles(quandle, coeff)
            if all(row[0] == coeff.identity for row in table)
        }
        found = {beta.values for beta in normalized_cocycles(quandle, coeff, 0)}
        assert found == expected


def test_h2c_class_counts_match_brute_force(r3, q4):
    for quandle, coeff in [
        (r3, CoeffGroup.symmetric(2)),
        (q4, CoeffGroup.abelian((2,))),
    ]:
        all_cocycles = [
            ConstantCocycle(quandle, coeff, t)
            for t in brute_force_cocycles(quandle, coeff)
        ]
        classes = []
        for beta in all_cocycles:
            for cls in classes:
                if q.are_cohomologous(beta, cls[0]):
                    cls.append(beta)
                    break
            else:
                classes.append([beta])
        assert len(classes) == len(q.h2c(quandle, coeff))


def test_h2c_known_class_counts(r3, q4):
    assert len(q.h2c(r3, CoeffGroup.symmetric(2))) == 1
    assert len(q.h2c(q4, CoeffGroup.abelian((2,)))) == 2
    assert len(q.h2c(q4, CoeffGroup.abelian((3,)))) == 1
    assert len(q.h2c(q4, CoeffGroup.abelian((2, 2)))) == 4
    z5 = q.FinAbGroup((5,))
    qz5 = q.affine_quandle(z5, q.AbHom.scaling(z5, 2))
    assert len(q.h2c(qz5, CoeffGroup.symmetric(3))) == 1


def test_h2c_representative_tables(q4):
    z2 = CoeffGroup.abelian((2,))
    reps = q.h2c(q4, z2)
    tables = {rep.values for rep in reps}
    expected_trivial = tuple(tuple(r) for r in beta_a_table(q4, z2, 0))
    expected_nontrivial = tuple(tuple(r) for r in beta_a_table(q4, z2, 1))
    assert tables == {expected_trivial, expected_nontrivial}


def test_h2c_representatives_match_reference(affine_corpus):
    """The conjugation least on the first occurrences gives the least full
    table, over symmetric and abelian groups, at the first and last point."""
    groups = [CoeffGroup.symmetric(k) for k in range(2, 6)]
    groups += [CoeffGroup.abelian(m) for m in ((2,), (3,), (4,), (2, 2), (9,), (3, 3))]
    for name, quandle in affine_corpus:
        for coeff in groups:
            for u in (0, quandle.size - 1):
                reps = [rep.values for rep in q.h2c(quandle, coeff, u)]
                assert reps == reference_h2c(quandle, coeff, u), (name, coeff, u)


def test_h2c_builds_tables_for_representatives_only(q4, monkeypatch):
    """h2c buckets the cocycles as orbit vectors and builds a table for each
    class representative only: q4 over Sym(5) has 26 normalized cocycles in
    3 classes."""
    s5 = CoeffGroup.symmetric(5)
    assert len(normalized_cocycles(q4, s5)) == 26
    built = []
    monkeypatch.setattr(cmod, "ConstantCocycle",
                        lambda *args, **kwargs: built.append(1) or ConstantCocycle(*args, **kwargs))
    reps = q.h2c(q4, s5)
    assert len(reps) == 3
    assert len(built) == len(reps)


def test_h2c_base_point_independence(r3, q4):
    z2 = CoeffGroup.abelian((2,))
    s2 = CoeffGroup.symmetric(2)
    for quandle, coeff in [(r3, s2), (q4, z2), (q4, s2)]:
        counts = {len(q.h2c(quandle, coeff, u=u)) for u in range(quandle.size)}
        assert len(counts) == 1


def test_h2c_refuses_non_latin():
    with pytest.raises(NotLatin):
        q.h2c(q.projection_quandle(3), CoeffGroup.symmetric(2))


def test_h2c_budget():
    with pytest.raises(BudgetExceeded):
        q.h2c(q.dihedral_quandle(3), CoeffGroup.symmetric(2), node_budget=0)


def test_h2c_without_free_orbit_searches_no_relation(monkeypatch):
    """On Aff(F_25, omega), Aff(F_27, omega) and Q(Z_7, 3) every orbit is
    pinned: no instance is collected, the search gets no relation and counts
    its root only, and the one class is the trivial one."""
    received = []
    search = cmod.solutions

    def spy(op, relations, values, **kwargs):
        received.append(relations)
        return search(op, relations, values, **kwargs)

    monkeypatch.setattr(cmod, "solutions", spy)
    quandles = [primitive_affine(25), primitive_affine(27), q.affine_quandle(FinAbGroup((7,)), [[3]])]
    for quandle in quandles:
        for coeff in (CoeffGroup.abelian((2,)), CoeffGroup.symmetric(3)):
            reps = q.h2c(quandle, coeff, node_budget=1)
            assert len(reps) == 1 and reps[0].is_trivial(), (quandle.size, coeff)
            with pytest.raises(BudgetExceeded):
                q.h2c(quandle, coeff, node_budget=0)
    assert received == [[]] * 12


def test_orbit_presentation_is_built_once_per_quandle_and_base_point(monkeypatch):
    """h2c and normalized_cocycles over several groups on one quandle build
    P(Q, u) once per base point. The cache lives on the object: another
    quandle with the same table builds its own and gets the same answers, and
    a point outside the quandle is still refused."""
    built = []
    fgh_orbits = cmod._fgh_orbits
    monkeypatch.setattr(cmod, "_fgh_orbits", lambda quandle, u: built.append(u) or fgh_orbits(quandle, u))
    coeffs = [CoeffGroup.abelian((2,)), CoeffGroup.abelian((3,)), CoeffGroup.symmetric(3)]
    quandle = q.affine_quandle(FinAbGroup((3, 3)), [[2, 0], [0, 2]])
    answers = {}
    for u in (0, 8):
        answers[u] = [(q.h2c(quandle, coeff, u), normalized_cocycles(quandle, coeff, u))
                      for coeff in coeffs]
    assert built == [0, 8]
    twin = q.from_table(quandle.table)
    assert [(q.h2c(twin, coeff, 8), normalized_cocycles(twin, coeff, 8))
            for coeff in coeffs] == answers[8]
    assert built == [0, 8, 8]
    for u in (-1, 9, True):
        with pytest.raises(ValueError):
            q.h2c(quandle, coeffs[0], u)


def test_normalized_cocycles_are_invariant(small_affine_corpus, small_coeffs):
    """Every emitted u-normalized cocycle is f-, g- and h-invariant."""
    for _, quandle in small_affine_corpus:
        if quandle.size > 5:
            continue
        maps = {which: pair_map(quandle, 0, which) for which in "fgh"}
        for _, coeff in small_coeffs:
            if coeff.order > 4:
                continue
            for beta in normalized_cocycles(quandle, coeff, 0):
                for images in maps.values():
                    for x in range(quandle.size):
                        for y in range(quandle.size):
                            px, py = apply_pair(images, (x, y))
                            assert beta.values[px][py] == beta.values[x][y]


def test_g_invariance_iff_first_argument_normalized(q4):
    # beta is g-invariant exactly when beta(u, x) = 1 for all x
    z2 = CoeffGroup.abelian((2,))
    g = pair_map(q4, 0, "g")
    for table in brute_force_cocycles(q4, z2):
        beta = ConstantCocycle(q4, z2, table)
        g_invariant = all(
            beta.values[x][y] == beta.values[apply_pair(g, (x, y))[0]][apply_pair(g, (x, y))[1]]
            for x in range(4)
            for y in range(4)
        )
        first_normalized = all(beta.values[0][x] == z2.identity for x in range(4))
        assert g_invariant == first_normalized


def test_division_identity_for_normalized(small_affine_corpus):
    # beta(u/(u/x), x) = beta(u/x, x), and u/(u/x)*x = u only at x = u
    z2 = CoeffGroup.abelian((2,))
    for _, quandle in small_affine_corpus:
        if quandle.size > 5:
            continue
        u = 0
        for beta in normalized_cocycles(quandle, z2, u):
            for x in range(quandle.size):
                a = quandle.right_divide(u, quandle.right_divide(u, x))
                b = quandle.right_divide(u, x)
                assert beta.values[a][x] == beta.values[b][x]
                assert (quandle.op(a, x) == u) == (x == u)


def test_affine_translation_rules_for_normalized(small_affine_corpus):
    # beta(n*y + x, y) = beta(x, y) and beta(n*x, x) = 1 for 0-normalized beta
    z2 = CoeffGroup.abelian((2,))
    for _, quandle in small_affine_corpus:
        if quandle.size > 5:
            continue
        group = quandle.group
        elems = group.elements()
        for beta in normalized_cocycles(quandle, z2, 0):
            for x, xe in enumerate(elems):
                for y, ye in enumerate(elems):
                    shifted = group.index_of(group.add(ye, xe))
                    assert beta.values[shifted][y] == beta.values[x][y]
            for x, xe in enumerate(elems):
                for n in range(group.order + 1):
                    nx = group.index_of(group.smul(n, xe))
                    assert beta.values[nx][x] == z2.identity


def test_embed_trivial(q4):
    z2 = CoeffGroup.abelian((2,))
    embedded = q.embed_coeffs(q.trivial_cocycle(q4, z2))
    assert embedded.coeff.order == 2
    assert embedded.is_trivial()


def test_embed_values_are_fixed_point_free_involutions(q4):
    z22 = CoeffGroup.abelian((2, 2))
    beta = ConstantCocycle(q4, z22, beta_a_table(q4, z22, 2))
    embedded = q.embed_coeffs(beta)
    target = embedded.coeff
    assert target.points == 4
    for row in embedded.values:
        for v in row:
            images = target.perm_images(v)
            if v != target.identity:
                assert all(images[i] != i for i in range(4))
                assert target.mul(v, v) == target.identity


def test_embedding_collapses_abelian_distinctions(q4):
    # j(beta_a) ~ j(beta_b) over Sym(G) for distinct nonzero a, b in Z2 x Z2,
    # although beta_a and beta_b are not cohomologous over the abelian group
    z22 = CoeffGroup.abelian((2, 2))
    betas = {
        a: ConstantCocycle(q4, z22, beta_a_table(q4, z22, a)) for a in range(1, 4)
    }
    for a in range(1, 4):
        for b in range(1, 4):
            if a != b:
                assert not q.are_cohomologous(betas[a], betas[b])
                assert q.are_cohomologous(
                    q.embed_coeffs(betas[a]), q.embed_coeffs(betas[b])
                )


def test_embedding_commutes_with_normalization(r3, q4):
    s2 = CoeffGroup.symmetric(2)
    z2 = CoeffGroup.abelian((2,))
    cases = [(r3, s2, t) for t in brute_force_cocycles(r3, s2)]
    cases += [(q4, z2, t) for t in brute_force_cocycles(q4, z2)]
    for quandle, coeff, table in cases:
        beta = ConstantCocycle(quandle, coeff, table)
        for u in range(quandle.size):
            left = q.embed_coeffs(q.normalize(beta, u))
            right = q.normalize(q.embed_coeffs(beta), u)
            assert left == right


def test_cocycle_json_roundtrip(q4):
    z2 = CoeffGroup.abelian((2,))
    beta = ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1))
    doc = cocycle_to_json(beta)
    text = json.dumps(doc)
    loaded = cocycle_from_json(json.loads(text))
    assert loaded.values == beta.values
    assert loaded.quandle.table == q4.table
    loaded2 = cocycle_from_json(json.loads(text), quandle=q4, coeff=z2)
    assert loaded2 == beta


def test_cocycle_json_rejects_malformed_documents(q4):
    z2 = CoeffGroup.abelian((2,))
    doc = cocycle_to_json(q.trivial_cocycle(q4, z2))
    no_values = {k: v for k, v in doc.items() if k != "values"}
    cases = [[doc], None, no_values, {**doc, "values": 5}, {**doc, "values": ["0", "0"]},
             {**doc, "coeff": 2}, {"values": doc["values"]}]
    # malformed embedded tables: not a list, a row not a list, a null entry,
    # and entries that are no integers (once truncated to the 1-point quandle)
    for table in (5, [5], [[None]], [[0.5]], [["0"]], [[True]]):
        cases.append({**doc, "quandle": {"table": table}})
    for bad in cases:
        with pytest.raises(ValueError):
            cocycle_from_json(bad)
    for bad in ([doc], no_values, {**doc, "values": 5}):
        with pytest.raises(ValueError):
            cocycle_from_json(bad, quandle=q4, coeff=z2)


def test_h2c_over_cayley_coefficients(q4):
    # the explicit-table constructor must behave exactly like the built-in
    # symmetric group
    s3 = CoeffGroup.symmetric(3)
    table = [[s3.mul(a, b) for b in range(6)] for a in range(6)]
    cayley = CoeffGroup.from_cayley(table)
    assert len(q.h2c(q4, cayley)) == len(q.h2c(q4, s3)) == 2
    r3 = q.dihedral_quandle(3)
    assert len(q.h2c(r3, cayley)) == 1


def test_h2c_refuses_connected_non_latin():
    # conjugation on the six transpositions of Sym(4): connected, not latin
    from quandles.perms import Perm

    transpositions = [
        Perm.from_cycles(4, [(a, b)]) for a in range(4) for b in range(a + 1, 4)
    ]
    quandle = q.conjugation_quandle(transpositions)
    assert quandle.is_connected()
    assert not quandle.is_latin
    with pytest.raises(NotLatin):
        q.h2c(quandle, CoeffGroup.symmetric(2))


def test_normalized_cocycles_match_reference(small_affine_corpus, small_coeffs):
    """Instances from the cycle representatives of L_u lose nothing: same list,
    same order, as the instances over all n^3 triples."""
    for name, quandle in small_affine_corpus:
        for cname, coeff in small_coeffs:
            for u in (0, 1):
                found = [beta.values for beta in normalized_cocycles(quandle, coeff, u)]
                expected = [
                    beta.values for beta in reference_normalized_cocycles(quandle, coeff, u)
                ]
                assert found == expected, (name, cname, u)
                # emitted unchecked: each must pass the full n^3 check
                for values in found:
                    assert reference_cocycle_witness(quandle, coeff, values) is None


# abelian groups of order <= 27 that carry connected affine quandles
CONNECTED_AFFINE_MODULI = [
    (3,), (5,), (7,), (9,), (11,), (13,), (15,), (21,), (25,), (27,),
    (2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4), (3, 3), (3, 9), (3, 3, 3), (5, 5),
    (2, 2, 3), (2, 2, 5),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONNECTED_AFFINE_MODULI), st.data())
def test_normalized_cocycles_match_reference_on_random_affine(moduli, data):
    group = FinAbGroup(moduli)
    entries = st.lists(st.integers(0, 8), min_size=group.rank**2, max_size=group.rank**2)
    for _ in range(50):
        alpha = endomorphism(group, data.draw(entries))
        if alpha.is_automorphism() and q.affine_is_connected(group, alpha):
            break
    else:
        reject()
    quandle = q.AffineQuandle(group, alpha)
    coeff = data.draw(
        st.sampled_from([CoeffGroup.abelian((2,)), CoeffGroup.abelian((3,)), CoeffGroup.symmetric(3)])
    )
    u = data.draw(st.integers(0, quandle.size - 1))
    found = [beta.values for beta in normalized_cocycles(quandle, coeff, u)]
    assert found == [beta.values for beta in reference_normalized_cocycles(quandle, coeff, u)]
    assert [rep.values for rep in q.h2c(quandle, coeff, u)] == reference_h2c(quandle, coeff, u)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cocycle_verifiers_match_reference(small_affine_corpus, small_coeffs, data):
    """On corrupted cocycles cocycle_witness gives the reference's first violation."""
    _, quandle = data.draw(st.sampled_from(small_affine_corpus))
    _, coeff = data.draw(st.sampled_from(small_coeffs))
    cocycles = normalized_cocycles(quandle, coeff, 0)
    beta = data.draw(st.sampled_from(cocycles))
    values = corrupt(data, beta.values, range(coeff.order))
    assert outcome(cocycle_witness, quandle, coeff, values) == outcome(
        reference_cocycle_witness, quandle, coeff, values
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cocycle_witness_matches_reference_past_the_diagonal(
    small_affine_corpus, small_coeffs, data
):
    """A swap off the diagonal of one row of a cocycle, normalized or
    twisted, keeps the diagonal trivial, so only the cocycle condition
    decides: the check on a generating set accepts exactly the tables the
    full scan accepts, and a rejected one carries the least witness."""
    _, quandle = data.draw(st.sampled_from(small_affine_corpus))
    _, coeff = data.draw(st.sampled_from(small_coeffs))
    beta = data.draw(st.sampled_from(normalized_cocycles(quandle, coeff, 0)))
    gamma = data.draw(st.lists(st.integers(0, coeff.order - 1), min_size=quandle.size,
                               max_size=quandle.size), label="gamma")
    values = data.draw(off_diagonal_swap(cmod._twist(beta, gamma)))
    assert outcome(cocycle_witness, quandle, coeff, values) == outcome(
        reference_cocycle_witness, quandle, coeff, values
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_table_validator_matches_reference(data):
    """Light's test on a generating set accepts exactly the Cayley tables
    the full associativity scan accepts, and a rejected table gets the
    full scan's message."""
    group = data.draw(st.sampled_from(
        [CoeffGroup.symmetric(3), CoeffGroup.abelian((2, 4)), CoeffGroup.abelian((9,))]
    ))
    if data.draw(st.booleans(), label="swap off the diagonal"):
        table = data.draw(off_diagonal_swap(group.table))
    else:
        table = corrupt(data, group.table, range(group.order))
    assert outcome(_validate_group_table, table) == outcome(
        reference_validate_group_table, table
    )


@pytest.mark.parametrize("order", sorted(PRIMITIVE_FIELDS))
def test_doubly_transitive_cohomology_is_trivial(order):
    """Aff(F_q, omega), q != 4, is simply connected: one class for every fiber."""
    quandle = primitive_affine(order)
    # omega generates F_q^*, so Aff(F_q, omega) is doubly transitive
    assert quandle.size == order and automorphism_order(quandle.alpha) == order - 1
    for descriptor in ("Z2", "Z3", "Z 2 x Z 2", "Sym(2)", "Sym(3)"):
        reps = q.h2c(quandle, parse_coeff_descriptor(descriptor))
        assert len(reps) == 1 and reps[0].is_trivial(), (order, descriptor)


def test_abelian_class_count_is_hom_count(affine_corpus):
    """|H^2_c(X, A)| = |Hom(pi1 X, A)| = prod gcd(d_i, a_j) for abelian A."""
    for name, quandle in affine_corpus:
        if quandle.size > 27:
            continue
        invariants = q.pi1_affine(quandle)
        for moduli in [(2,), (3,), (4,), (2, 2), (6,), (3, 3)]:
            expected = math.prod(math.gcd(d, a) for d in invariants for a in moduli)
            classes = q.h2c(quandle, CoeffGroup.abelian(moduli))
            assert len(classes) == expected, (name, moduli)
