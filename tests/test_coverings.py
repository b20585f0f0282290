from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles as q
import quandles.cocycles as cmod
import quandles.core as core
import quandles.coverings as cov
from conftest import (
    beta_a_table,
    build_affine,
    corrupt,
    from_cycles,
    outcome,
    primitive_affine,
    reference_congruences,
    reference_cocycle_witness,
    reference_coverings_equivalent,
    reference_extension_table,
    reference_is_covering,
    reference_validate_table,
)
from quandles.cli import main
from quandles.cocycles import (
    CoeffGroup,
    ConstantCocycle,
    _twist,
    cocycle_witness,
    normalized_cocycles,
)
from quandles.coverings import (
    Congruence,
    Covering,
    all_congruences,
    coverings_equivalent,
    extend,
    is_covering,
    ker_left_section,
    principal_congruence,
)
from quandles.errors import (
    BudgetExceeded,
    InvalidCocycle,
    NotCompatible,
    NotConnected,
    NotHomomorphism,
    NotLeftDistributive,
    NotSurjective,
)
from quandles.perms import _after, _inverse


def direct_product_with_projection(base, fiber):
    """R x P_fiber as an extension with the trivial cocycle."""
    s2 = CoeffGroup.symmetric(fiber)
    return extend(base, q.trivial_cocycle(base, s2))


def test_extend_trivial_is_direct_product(r3):
    ext = direct_product_with_projection(r3, 2)
    assert ext.total.size == 6
    for x in range(3):
        for s in range(2):
            for y in range(3):
                for t in range(2):
                    a = x * 2 + s
                    b = y * 2 + t
                    assert ext.total.op(a, b) == r3.op(x, y) * 2 + t


def test_extend_fiber_one_is_isomorphic_to_base(q4):
    s1 = CoeffGroup.symmetric(1)
    ext = extend(q4, q.trivial_cocycle(q4, s1))
    assert ext.total.table == q4.table


def test_extend_all_r3_cocycles(r3):
    s2 = CoeffGroup.symmetric(2)
    for beta in normalized_cocycles(r3, s2, 0):
        ext = extend(r3, beta)
        assert ext.total.size == 6
        assert is_covering(ext.total, r3, ext.projection)


def test_extend_needs_symmetric_coefficients(q4):
    z2 = CoeffGroup.abelian((2,))
    with pytest.raises(ValueError):
        extend(q4, ConstantCocycle(q4, z2, beta_a_table(q4, z2, 1)))


def test_extend_checks_each_cocycle_once(q4, monkeypatch):
    """A constant cocycle is checked by one cocycle_witness when it is
    constructed; extend runs none and never re-validates the total."""
    s2 = CoeffGroup.symmetric(2)
    calls = []

    def counted(fn):
        return lambda *args: calls.append((fn.__name__, args[0])) or fn(*args)

    def forbidden(*args):
        raise AssertionError("re-proof of what holds by construction")

    monkeypatch.setattr(cmod, "cocycle_witness", counted(cocycle_witness))
    beta = ConstantCocycle(q4, s2, beta_a_table(q4, s2, 1))
    assert calls == [("cocycle_witness", q4)]
    calls.clear()
    monkeypatch.setattr(core, "_validate_table", forbidden)
    extend(q4, beta)
    assert calls == []


def test_nothing_is_re_proved_after_construction(
    small_affine_corpus, small_coeffs, r3, q4, monkeypatch
):
    """Found and normalized cocycles, coset and conjugation tables, kernels
    and extensions hold by construction: the n^3 cocycle check, the table
    validator and the compatibility check never run on them."""
    s2, s3 = CoeffGroup.symmetric(2), CoeffGroup.symmetric(3)
    g33 = q.FinAbGroup((3, 3))
    swap = q.AbHom(g33, g33, [[0, 1], [1, 0]])
    s = from_cycles(3, [(0, 1)])
    sym3 = q.PermGroup([s, from_cycles(3, [(0, 1, 2)])])
    elements = sorted(sym3.elements())

    def forbidden(*args):
        raise AssertionError("re-proof of what holds by construction")

    monkeypatch.setattr(cmod, "cocycle_witness", forbidden)
    monkeypatch.setattr(core, "_validate_table", forbidden)
    monkeypatch.setattr(core, "_validate_group_table", forbidden)
    monkeypatch.setattr(Congruence, "_compatibility_witness", forbidden)
    for _, quandle in small_affine_corpus:
        u = quandle.size - 1
        for _, coeff in small_coeffs:
            cocycles = normalized_cocycles(quandle, coeff, 0)
            assert 1 <= len(q.h2c(quandle, coeff)) <= len(cocycles)
            for beta in cocycles:
                assert q.normalize(beta, u).is_normalized(u)
        ker_left_section(quandle)
    q.coset_quandle(g33, [g33.zero], swap)
    q.coset_quandle(g33, [(t, t) for t in range(3)], swap)
    q.coset_quandle(g33, list(g33.elements()), q.AbHom.identity(g33))
    q.coset_quandle(sym3, [(0, 1, 2), s], [_after(_after(s, p), _inverse(s)) for p in elements])
    q.conjugation_quandle(
        from_cycles(4, [(a, b)]) for a in range(4) for b in range(a + 1, 4)
    )
    q.conjugation_quandle([(0, 1, 2)])
    for quandle in (r3, q4):
        for coeff in (s2, s3):
            for beta in normalized_cocycles(quandle, coeff, 0):
                ker_left_section(extend(quandle, beta).total)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extend_checks_constant_cocycles_like_the_reference(small_affine_corpus, data):
    """The constant constructor refuses a corrupted table exactly when the
    full scan of the reference finds a violation, and extend builds a valid
    total from every table it accepts."""
    _, quandle = data.draw(st.sampled_from(small_affine_corpus))
    coeff = CoeffGroup.symmetric(data.draw(st.integers(2, 3)))
    beta = data.draw(st.sampled_from(normalized_cocycles(quandle, coeff, 0)))
    values = corrupt(data, beta.values, range(coeff.order))
    witness = reference_cocycle_witness(quandle, coeff, values)
    constant = outcome(ConstantCocycle, quandle, coeff, values)
    assert (witness is None) == (constant[0] == "value"), (witness, constant)
    if constant[0] == "value":
        ext = extend(quandle, constant[1])
        assert reference_validate_table(ext.total.table) == ext.total.table
    else:
        assert constant[1] is InvalidCocycle


def test_constant_total_matches_reference(small_affine_corpus):
    """extend builds a constant total from the permutations, the same table
    as the reference builds cell by cell; the twist by gamma brings in
    3-cycles."""
    s3 = CoeffGroup.symmetric(3)
    for name, quandle in small_affine_corpus:
        gamma = [x % s3.order for x in range(quandle.size)]
        for beta in normalized_cocycles(quandle, s3, 0):
            twisted = ConstantCocycle(quandle, s3, _twist(beta, gamma))
            assert extend(quandle, twisted).total.table == reference_extension_table(twisted), name


def test_extend_takes_constant_cocycles_only(r3):
    trivial = direct_product_with_projection(r3, 2)
    for cocycle in (trivial.as_covering(), [list(row) for row in trivial.cocycle.values], None):
        with pytest.raises(TypeError, match="cocycle must be a ConstantCocycle"):
            extend(r3, cocycle)


def test_extend_checks_against_the_given_quandle():
    """A class of Q(Z_3^2, -1) is no cocycle on Aff(F_9, omega) of equal order."""
    source, target = build_affine("z3sq_neg"), build_affine("z3sq_8cycle")
    s3 = CoeffGroup.symmetric(3)
    beta = next(rep for rep in q.h2c(source, s3) if not rep.is_trivial())
    with pytest.raises(InvalidCocycle) as info:
        ConstantCocycle(target, s3, beta.values)
    assert info.value.witness == ("cocycle", (0, 1, 3))
    with pytest.raises(InvalidCocycle, match="different quandle"):
        extend(target, beta)


def test_quotient_requires_compatible(r3, monkeypatch):
    """Only a compatible partition has a quotient: Congruence refuses the
    others, after one compatibility check."""
    ext = direct_product_with_projection(r3, 2)
    blocks = [[0, 1, 2], [3, 4, 5]]
    calls = []
    check = Congruence._compatibility_witness
    monkeypatch.setattr(
        Congruence, "_compatibility_witness", lambda self: calls.append(1) or check(self)
    )
    with pytest.raises(NotCompatible):
        Congruence(ext.total, blocks)
    assert len(calls) == 1  # a block list is checked once


def test_congruence_blocks_must_be_point_indices():
    """Blocks list points by the index rule: a float point is a ValueError,
    not a TypeError, and true is no point, though it equals 1."""
    p4 = q.projection_quandle(4)
    for blocks in ([[0.0, 1], [2, 3]], [[True, 0], [2, 3]], [[0, 1], [2, -1]], [[0, 1, 2, 4]]):
        with pytest.raises(ValueError, match="blocks must list points 0..3"):
            Congruence(p4, blocks)
    assert Congruence(p4, [(1, 0), [3, 2, 2]]).blocks == ((0, 1), (2, 3))


def check_fibers(ext):
    """The full axiom check of an extension's total, of the projection as a
    homomorphism onto the base and of the fibers as a congruence, by the
    checking constructor: all hold by construction once the cocycle is valid."""
    total, base, m = ext.total, ext.base, ext.fiber_size
    assert reference_validate_table(total.table) == total.table
    assert all(
        total.op(a, b) // m == base.op(a // m, b // m)
        for a in range(total.size)
        for b in range(total.size)
    )
    Congruence(total, [range(x * m, (x + 1) * m) for x in range(base.size)])


def test_extend_quotient_round_trip(small_affine_corpus):
    """The quotient of a total by its fibers, read off one point per fiber,
    is the base again."""
    for name, quandle in small_affine_corpus:
        n = quandle.size
        for points in (2, 3):
            s = CoeffGroup.symmetric(points)
            for beta in [q.trivial_cocycle(quandle, s), *normalized_cocycles(quandle, s, 0)]:
                ext = extend(quandle, beta)
                check_fibers(ext)
                m = ext.fiber_size
                table = [[ext.projection[row[y * m]] for y in range(n)]
                         for row in ext.total.table[::m]]
                assert table == [list(row) for row in quandle.table], name


def checked_kernel(quandle):
    """ker_left_section, after checking that its blocks, built unchecked,
    are a congruence."""
    kernel = ker_left_section(quandle)
    assert kernel.blocks in reference_congruences(quandle)
    return kernel


def test_ker_left_section(r3):
    assert all(len(b) == 1 for b in checked_kernel(r3).blocks)
    proj = q.projection_quandle(3)
    assert len(checked_kernel(proj)) == 1
    ext = direct_product_with_projection(r3, 2)
    kernel = checked_kernel(ext.total)
    assert sorted(len(b) for b in kernel.blocks) == [2, 2, 2]


def test_ker_left_section_identity_on_latin(small_affine_corpus):
    for name, quandle in small_affine_corpus:
        assert all(len(b) == 1 for b in checked_kernel(quandle).blocks), name


def test_is_covering_canonical_projection(small_affine_corpus):
    s2 = CoeffGroup.symmetric(2)
    for name, quandle in small_affine_corpus:
        if quandle.size > 5:
            continue
        for beta in normalized_cocycles(quandle, s2, 0):
            ext = extend(quandle, beta)
            assert is_covering(ext.total, quandle, ext.projection), name


def test_is_covering_coset_instance():
    g = q.FinAbGroup((3, 3))
    swap = q.AbHom(g, g, [[0, 1], [1, 0]])
    total = q.coset_quandle(g, [g.zero], swap)
    diagonal = [(t, t) for t in range(3)]
    base = q.coset_quandle(g, diagonal, swap)
    for built in (total, base):
        assert reference_validate_table(built.table) == built.table
    # psi(x + H1) = x + H2; compute each element's diagonal coset index
    base_cosets = base.cosets
    elems = list(g.elements())

    def coset_of(idx):
        x = elems[idx]
        member = min(g.index_of(g.add(x, (t, t))) for t in range(3))
        for i, block in enumerate(base_cosets):
            if member in block:
                return i
        raise AssertionError

    mapping = [coset_of(i) for i in range(9)]
    assert is_covering(total, base, mapping)
    # every fiber has the index of the small subgroup in the large one
    fiber_sizes = {mapping.count(i) for i in range(base.size)}
    assert fiber_sizes == {3}
    # the total here is genuinely disconnected, which is why connectivity
    # enforcement is opt-in
    assert not total.is_connected()
    with pytest.raises(NotConnected):
        is_covering(total, base, mapping, require_connected=True)


@pytest.mark.parametrize("projection", [[0.5, 1.2, 2.9], [False, True, 2], [0, 1, 3]])
def test_is_covering_needs_point_indices(r3, projection):
    # [0.5, 1.2, 2.9] was truncated to the identity and reported a covering
    with pytest.raises(ValueError, match="projection must map"):
        is_covering(r3, r3, projection)


def test_is_covering_rejects_non_homomorphism(r3):
    ext = direct_product_with_projection(r3, 2)
    bad = [0, 0, 1, 1, 2, 2]
    bad[0] = 1
    with pytest.raises(NotHomomorphism):
        is_covering(ext.total, r3, bad)


def test_is_covering_rejects_non_surjective(r3):
    ext = direct_product_with_projection(r3, 2)
    with pytest.raises(NotSurjective):
        is_covering(ext.total, q.dihedral_quandle(3), [0, 0, 0, 0, 1, 1])


def test_non_constant_extension_is_not_covering(r3):
    # the direct product R_3 x R_3, folded over its first coordinate, has
    # fiber-dependent translations
    n = 3
    table = [
        [
            (r3.op(a // n, b // n)) * n + r3.op(a % n, b % n)
            for b in range(9)
        ]
        for a in range(9)
    ]
    square = q.Quandle(table)
    mapping = [i // n for i in range(9)]
    assert not is_covering(square, r3, mapping)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_covering_matches_reference(small_affine_corpus, r3, data):
    """On extensions of the corpus, and on products with R_3 folded onto the
    corpus quandle, whose projections get a relabeling of the base and some
    swaps, the check at the total's generating points gives the reference's
    verdict, or its exception and message."""
    _, base = data.draw(st.sampled_from(small_affine_corpus))
    if data.draw(st.booleans(), label="product"):
        n = base.size
        total = q.Quandle([[base.op(a // 3, b // 3) * 3 + r3.op(a % 3, b % 3)
                            for b in range(3 * n)] for a in range(3 * n)])
        projection = [a // 3 for a in range(3 * n)]
    else:
        coeff = CoeffGroup.symmetric(data.draw(st.integers(2, 3)))
        beta = data.draw(st.sampled_from(
            [q.trivial_cocycle(base, coeff), *normalized_cocycles(base, coeff, 0)]))
        ext = extend(base, beta)
        total, projection = ext.total, list(ext.projection)
    if data.draw(st.booleans(), label="relabel"):
        sigma = data.draw(st.permutations(range(base.size)), label="sigma")
        projection = [sigma[x] for x in projection]
    for _ in range(data.draw(st.integers(0, 2), label="swaps")):
        i, j = data.draw(st.lists(st.integers(0, total.size - 1), min_size=2, max_size=2,
                                  unique=True), label="positions")
        projection[i], projection[j] = projection[j], projection[i]
    connected = data.draw(st.booleans(), label="require_connected")

    def run(check):
        return outcome(lambda: check(total, base, projection, require_connected=connected))

    assert run(is_covering) == run(reference_is_covering)


def test_coverings_equivalent_self(r3):
    ext = direct_product_with_projection(r3, 2)
    assert coverings_equivalent(ext, ext)
    assert coverings_equivalent(ext.as_covering(), ext.as_covering())


def test_all_r3_coverings_trivial(r3):
    # every fiber-2 and fiber-3 covering of a simply connected quandle is
    # equivalent to the trivial one, through both decision paths
    for fiber in (2, 3):
        s = CoeffGroup.symmetric(fiber)
        trivial_ext = extend(r3, q.trivial_cocycle(r3, s))
        for beta in normalized_cocycles(r3, s, 0):
            ext = extend(r3, beta)
            assert coverings_equivalent(ext, trivial_ext)
            assert coverings_equivalent(ext.as_covering(), trivial_ext.as_covering())


def test_order4_nontrivial_extension_not_equivalent(q4):
    s2 = CoeffGroup.symmetric(2)
    swap = 1 - s2.identity
    beta = ConstantCocycle(q4, s2, beta_a_table(q4, s2, swap))
    ext = extend(q4, beta)
    trivial_ext = extend(q4, q.trivial_cocycle(q4, s2))
    assert not coverings_equivalent(ext, trivial_ext)
    assert not coverings_equivalent(ext.as_covering(), trivial_ext.as_covering())


def test_coverings_equivalent_needs_same_base(r3, q4):
    e1 = direct_product_with_projection(r3, 2)
    e2 = direct_product_with_projection(q4, 2)
    with pytest.raises(ValueError):
        coverings_equivalent(e1, e2)


def test_coverings_equivalent_size_cap(q4):
    e1 = direct_product_with_projection(q4, 4)
    e2 = direct_product_with_projection(q4, 4)
    with pytest.raises(BudgetExceeded):
        coverings_equivalent(e1.as_covering(), e2.as_covering())


def relabeled(covering):
    """The same covering with the total's points numbered backwards."""
    n = covering.total.size
    table = [[n - 1 - covering.total.op(n - 1 - a, n - 1 - b) for b in range(n)]
             for a in range(n)]
    return Covering(q.Quandle(table), covering.base, covering.projection[::-1])


def test_coverings_equivalent_matches_reference(r3, q4):
    """Every pair of coverings of r3, q4 and Q(Z_5, 2x) with at most 12 total
    points: extensions by every normalized cocycle into Sym(k), as extensions
    (the cohomology path when the groups agree), as coverings and relabeled
    (the search), against the backtracking of the reference."""
    for base in (r3, q4, build_affine("z5_l2")):
        coverings = []
        for k in range(2, 12 // base.size + 1):
            for beta in normalized_cocycles(base, CoeffGroup.symmetric(k)):
                ext = extend(base, beta)
                coverings += [ext, ext.as_covering(), relabeled(ext.as_covering())]
        plain = [c.as_covering() if isinstance(c, q.Extension) else c for c in coverings]
        for first, plain_first in zip(coverings, plain):
            for second, plain_second in zip(coverings, plain):
                expected = reference_coverings_equivalent(plain_first, plain_second)
                assert coverings_equivalent(first, second) == expected


def projection_cocycles(points, coeff):
    """The constant cocycles of the projection quandle on ``points`` points
    into coeff, by a brute force over the entries off the diagonal."""
    base, e = q.projection_quandle(points), coeff.identity
    off_diagonal = [(x, y) for x in range(points) for y in range(points) if x != y]
    cocycles = []
    for entries in product(range(coeff.order), repeat=len(off_diagonal)):
        table = [[e] * points for _ in range(points)]
        for (x, y), g in zip(off_diagonal, entries):
            table[x][y] = g
        if cocycle_witness(base, coeff, table) is None:
            cocycles.append(ConstantCocycle(base, coeff, table))
    return cocycles


def test_coverings_equivalent_disconnected_base():
    """Over a disconnected base nothing ties the fibers together: the search
    must not try the maps that repeat a point."""
    p2 = q.projection_quandle(2)
    s6 = CoeffGroup.symmetric(6)
    trivial = extend(p2, q.trivial_cocycle(p2, s6)).as_covering()
    assert coverings_equivalent(trivial, trivial)
    assert coverings_equivalent(trivial, relabeled(trivial))
    e = s6.identity
    twisted = ConstantCocycle(p2, s6, [[e, (e + 1) % s6.order], [e, e]])
    assert not coverings_equivalent(trivial, extend(p2, twisted).as_covering())
    points = Covering(q.projection_quandle(9), q.projection_quandle(1), (0,) * 9)
    assert coverings_equivalent(points, points)


def test_coverings_equivalent_matches_reference_disconnected_base():
    """Every pair of coverings of the 2-point projection quandle by a
    constant cocycle into Sym(2) or Sym(3), plain and relabeled."""
    coverings = []
    for k in (2, 3):
        for beta in projection_cocycles(2, CoeffGroup.symmetric(k)):
            plain = extend(beta.quandle, beta).as_covering()
            coverings += [plain, relabeled(plain)]
    equivalent = 0
    for first in coverings:
        for second in coverings:
            expected = reference_coverings_equivalent(first, second)
            assert coverings_equivalent(first, second) == expected
            equivalent += expected
    assert 0 < equivalent < len(coverings) ** 2


def test_coverings_equivalent_budget(monkeypatch, q4):
    s2 = CoeffGroup.symmetric(2)
    ext = extend(q4, ConstantCocycle(q4, s2, beta_a_table(q4, s2, 1 - s2.identity)))
    trivial = extend(q4, q.trivial_cocycle(q4, s2))
    assert not coverings_equivalent(ext.as_covering(), trivial.as_covering())
    monkeypatch.setattr(core, "MAX_ISOMORPHISM_NODES", 2)
    with pytest.raises(BudgetExceeded):
        coverings_equivalent(ext.as_covering(), trivial.as_covering())


def test_principal_congruence_and_lattice(r3, q4):
    # dihedral of size 3 admits only the two bounds
    congs = all_congruences(r3)
    assert len(congs) == 2
    # -1 read as 2, 5 past the table, True as 1: none is a point
    for pair in ((0, -1), (0, 5), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError):
            principal_congruence(r3, *pair)
    # every congruence of each small connected corpus quandle is uniform
    for quandle in (r3, q4, q.dihedral_quandle(5)):
        for cong in all_congruences(quandle):
            assert len({len(b) for b in cong.blocks}) == 1


def test_congruence_lattice_of_nine_element_affine():
    z9 = q.FinAbGroup((9,))
    quandle = q.affine_quandle(z9, q.AbHom.scaling(z9, 2))
    congs = all_congruences(quandle)
    sizes = sorted(len(c) for c in congs)
    # identity, the mod-3 fibering, and the full collapse
    assert sizes == [1, 3, 9]
    for cong in congs:
        assert len({len(b) for b in cong.blocks}) == 1


def small_totals(r3, q4):
    """The totals of at most 8 points of the extensions of r3, q4, P_2 and
    P_3 by every normalized (on r3 and q4) or every (on P_2 and P_3)
    constant cocycle into Sym(2) or Sym(3)."""
    totals = []
    for k in (2, 3):
        coeff = CoeffGroup.symmetric(k)
        for base in (r3, q4):
            if base.size * k <= 8:
                totals += [extend(base, beta).total for beta in normalized_cocycles(base, coeff)]
        for points in (2, 3):
            if points * k <= 8:
                totals += [extend(beta.quandle, beta).total
                           for beta in projection_cocycles(points, coeff)]
    return totals


def test_congruences_match_reference(small_affine_corpus, r3, q4):
    """all_congruences is every compatible set partition, and each principal
    congruence is the least compatible partition joining its pair."""
    quandles = [quandle for _, quandle in small_affine_corpus] + small_totals(r3, q4)
    for quandle in quandles:
        expected = reference_congruences(quandle)
        assert [c.blocks for c in all_congruences(quandle)] == sorted(
            expected, key=lambda blocks: (len(blocks[0]), blocks))
        for a in range(quandle.size):
            for b in range(a + 1, quandle.size):
                joining = [blocks for blocks in expected
                           if any(a in block and b in block for block in blocks)]
                least = max(joining, key=len)
                # the least one refines every other
                assert all(all(any(set(small) <= set(big) for big in blocks) for small in least)
                           for blocks in joining)
                assert principal_congruence(quandle, a, b).blocks == least


def test_congruence_cap():
    with pytest.raises(BudgetExceeded):
        all_congruences(q.projection_quandle(13))


def test_direct_product_congruences(r3):
    ext = direct_product_with_projection(r3, 2)
    congs = all_congruences(ext.total)
    assert ((0, 1), (2, 3), (4, 5)) in [c.blocks for c in congs]  # the fibers are found


def test_accepted_input_never_enters_the_ordered_scan(
    affine_corpus, q4, monkeypatch, tmp_path, capsys
):
    """Valid tables, Cayley tables and cocycles are accepted by the checks at
    a generating set: no scan runs over every point, neither the n^3 one
    nor the full associativity scan that a rejected Cayley table gets."""

    def generators_only(scan):
        def guarded(table, *args):
            size = len(table) if isinstance(table, tuple) else table.size
            if len(args[-1]) >= size:
                raise AssertionError(f"{scan.__name__} scanned every point")
            return scan(table, *args)
        return guarded

    for name in ("_distributivity_violation", "_associativity_violation"):
        monkeypatch.setattr(core, name, generators_only(getattr(core, name)))
    # the cocycle check scans the quandle's generating set
    generating_set = core.Quandle._generating_set

    def proper_generating_set(quandle):
        points = generating_set(quandle)
        if len(points) >= quandle.size:
            raise AssertionError("the generating set holds every point")
        return points

    monkeypatch.setattr(core.Quandle, "_generating_set", proper_generating_set)
    s3 = CoeffGroup.symmetric(3)
    for name, quandle in affine_corpus:
        loaded = q.quandle_from_text(q.quandle_to_text(quandle))
        assert loaded.table == quandle.table, name
        for beta in q.h2c(loaded, s3):
            assert ConstantCocycle(loaded, s3, beta.values).values == beta.values, name
    for group in (s3, CoeffGroup.abelian((2, 4)), CoeffGroup.abelian((9,))):
        assert CoeffGroup.from_cayley(group.table).table == group.table
    beta = next(r for r in q.h2c(q4, s3) if not r.is_trivial())
    assert q.cocycle_from_json(q.cocycle_to_json(beta)) == beta
    path = tmp_path / "aff81.txt"
    path.write_text(q.quandle_to_text(primitive_affine(81)))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "size: 81\nquandle: yes\nlatin: yes\nconnected: yes\ndoubly transitive: yes\n"
        "semiregular: s=80\nlmlt order: 6480\n"
    )


def test_least_witness_at_a_later_generator():
    """Inputs that hold at the first generating point and fail at a later
    one: the check at the generators returns the full scan's least witness."""
    table = [[0, 1, 2, 3], [0, 1, 2, 3], [0, 3, 2, 1], [2, 1, 0, 3]]
    assert core._generating_points(tuple(map(tuple, table))) == [0, 1, 2]
    for validate in (q.from_table, reference_validate_table):
        with pytest.raises(NotLeftDistributive) as caught:
            validate(table)
        assert caught.value.witness == (2, 1, 0)
    p3 = q.projection_quandle(3)
    s3 = CoeffGroup.symmetric(3)
    values = [[0, 3, 0], [2, 0, 4], [3, 3, 0]]
    assert cocycle_witness(p3, s3, values) == ("cocycle", (1, 2, 0))
    assert reference_cocycle_witness(p3, s3, values) == ("cocycle", (1, 2, 0))
