"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (integer equalities), with wall-clock budgets
asserted where stated.
"""

import math
import time
from itertools import product

import quandles as q
from quandles.cocycles import (
    CoeffGroup,
    ConstantCocycle,
    _twist,
    full_partition,
    normalized_cocycles,
    pair_map,
)
from quandles.coverings import coverings_equivalent, extend, is_covering
from quandles.knots import GAUSS_CODES, cocycle_invariant, col_count, parse_gauss
from quandles.pi1 import pi1_presentation
from conftest import apply_pair, beta_a_table, build_affine, cycle_lengths


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def all_cocycles(quandle, coeff):
    """The full cocycle set: every coboundary twist of every normalized one."""
    n = quandle.size
    seen = {}
    for beta in normalized_cocycles(quandle, coeff, 0):
        for gamma in product(range(coeff.order), repeat=n):
            table = tuple(tuple(r) for r in _twist(beta, list(gamma)))
            if table not in seen:
                seen[table] = ConstantCocycle(quandle, coeff, table)
    return list(seen.values())


def test_criterion_1_order_four_fundamental_group(q4):
    start = time.perf_counter()
    pres = pi1_presentation(q4.group, q4.alpha)
    assert pres.tensor_order == 16
    assert pres.relator_order == 8
    assert pres.invariants == (2,)
    assert not q.is_simply_connected_affine(q4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"|G(x)G|=16, |I|=8, pi1=Z 2, not simply connected ({elapsed:.2f}s)")


def test_criterion_2_cyclic_affine_simply_connected():
    start = time.perf_counter()
    count = 0
    for m in range(1, 51):
        group = q.FinAbGroup.cyclic(m)
        for n in range(m):
            if math.gcd(m, n) == 1 and math.gcd(m, 1 - n) == 1:
                quandle = q.affine_quandle(group, q.AbHom.scaling(group, n))
                assert q.pi1_affine(quandle) == (), (m, n)
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, f"{count} connected cyclic affine quandles (m <= 50) all trivial ({elapsed:.2f}s)")


def test_criterion_3_doubly_transitive_pi1(q4):
    checked = []
    for name in ("z2cubed_a", "z3sq_8cycle", "z5_l2", "z5_l3"):
        quandle = build_affine(name)
        assert quandle.is_doubly_transitive(), name
        assert q.pi1_affine(quandle) == (), name
        checked.append(name)
    assert q.pi1_affine(q4) == (2,)
    report(3, f"pi1 trivial on {', '.join(checked)}; pi1 = Z 2 on the order-4 quandle")


def test_criterion_4_cohomology_agrees_with_pi1(small_affine_corpus):
    start = time.perf_counter()
    checked = 0
    for name, quandle in small_affine_corpus:
        simply_connected = q.is_simply_connected_affine(quandle)
        for points in (2, 3):
            coeff = CoeffGroup.symmetric(points)
            assert q.h2c_is_trivial(quandle, coeff) == simply_connected, (name, points)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    report(
        4,
        f"h2c triviality matches pi1 on {checked} (quandle, Sym(S)) pairs, "
        f"|X| <= 8, |S| in (2, 3) ({elapsed:.2f}s)",
    )


def test_criterion_5_order_four_cohomology(q4):
    z2 = CoeffGroup.abelian((2,))
    reps = q.h2c(q4, z2)
    assert len(reps) == 2
    tables = {rep.values for rep in reps}
    assert tables == {
        tuple(tuple(r) for r in beta_a_table(q4, z2, 0)),
        tuple(tuple(r) for r in beta_a_table(q4, z2, 1)),
    }
    assert len(q.h2c(q4, CoeffGroup.abelian((3,)))) == 1
    z22 = CoeffGroup.abelian((2, 2))
    assert len(q.h2c(q4, z22)) == 4
    betas = {a: ConstantCocycle(q4, z22, beta_a_table(q4, z22, a)) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a != b:
                assert not q.are_cohomologous(betas[a], betas[b])
                assert q.are_cohomologous(
                    q.embed_coeffs(betas[a]), q.embed_coeffs(betas[b])
                )
    report(5, "h2c(q4): 2 classes over Z 2 (displayed tables), 1 over Z 3, 4 over "
              "Z 2 x Z 2; regular embedding merges the nonzero classes in Sym(4)")


def test_criterion_6_normalized_cocycle_invariance(small_affine_corpus, small_coeffs):
    checked = 0
    for name, quandle in small_affine_corpus:
        n = quandle.size
        maps = {which: pair_map(quandle, 0, which) for which in "fgh"}
        group = quandle.group
        elems = group.elements()
        for coeff_name, coeff in small_coeffs:
            for beta in normalized_cocycles(quandle, coeff, 0):
                checked += 1
                v = beta.values
                # f-, g- and h-invariance on every pair
                for which, images in maps.items():
                    for x in range(n):
                        for y in range(n):
                            px, py = apply_pair(images, (x, y))
                            assert v[px][py] == v[x][y], (name, coeff_name, which)
                # division identity at the base point
                for x in range(n):
                    a = quandle.right_divide(0, quandle.right_divide(0, x))
                    b = quandle.right_divide(0, x)
                    assert v[a][x] == v[b][x], (name, coeff_name)
                    assert (quandle.op(a, x) == 0) == (x == 0)
                # multiples of the second argument never contribute
                for x, xe in enumerate(elems):
                    for k in range(group.order + 1):
                        kx = group.index_of(group.smul(k, xe))
                        assert v[kx][x] == coeff.identity, (name, coeff_name)
                # the regular embedding commutes with normalization
                embedded = q.embed_coeffs(beta)
                assert q.normalize(embedded, 0) == embedded, (name, coeff_name)
                twisted = ConstantCocycle(
                    quandle,
                    coeff,
                    _twist(beta, [i % coeff.order for i in range(n)]),
                )
                assert q.embed_coeffs(q.normalize(twisted, 0)) == q.normalize(
                    q.embed_coeffs(twisted), 0
                ), (name, coeff_name)
    report(6, f"invariance, division and translation laws hold for all {checked} "
              "normalized cocycles (|X| <= 8, |G| <= 6)")


def test_criterion_7_orbit_formulas(affine_corpus):
    quandles_checked = 0
    for name, quandle in affine_corpus:
        assert quandle.size <= 16, name
        quandles_checked += 1
        n = quandle.size
        group, alpha = quandle.group, quandle.alpha
        elems = group.elements()
        h = pair_map(quandle, 0, "h")
        l0 = cycle_lengths(quandle.table[0])
        lengths = {}
        for x in range(n):
            for y in range(n):
                # direct iteration, the translation recursion and the affine
                # alternating-sum formula are cross-checked inside
                length = q.f_orbit_length(quandle, 0, x, y)
                lengths[(x, y)] = length
                assert (length == 1) == (y == quandle.op(x, 0))
                assert length != 2
                # alternating power identity at the orbit length
                z = group.sub(elems[x], elems[quandle.right_divide(y, 0)])
                image = alpha.pow(length)(z)
                assert (group.neg(image) if length % 2 else image) == z
                # h-orbits have the additive order of the second coordinate
                h_len = 1
                cur = apply_pair(h, (x, y))
                while cur != (x, y):
                    h_len += 1
                    cur = apply_pair(h, cur)
                assert h_len == group.order_of(elems[y])
                assert (h_len == 1) == (y == 0)
                # even translation-cycle dichotomy
                ell = l0[group.index_of(z)]
                if ell % 2 == 0:
                    total = group.zero
                    term = z
                    partial = None
                    for j in range(ell):
                        if j:
                            term = alpha(term)
                        total = group.add(total, group.neg(term) if j % 2 else term)
                        if j == ell // 2 - 1:
                            partial = total
                    if length % 2 == 0:
                        assert length == group.order_of(total) * ell
                    else:
                        assert length == group.order_of(partial) * ell // 2
        # g-orbit lcm law
        for block in full_partition(quandle, 0, "g").blocks:
            x, y = divmod(block[0], n)
            assert len(block) == math.lcm(l0[x], l0[y])
            assert (len(block) == 1) == ((x, y) == (0, 0))
        # uniform non-fixed f-orbit length on doubly transitive quandles;
        # the odd-prime value formula needs F <= |X| - 1, i.e. 1 + alpha
        # bijective, which fails exactly at |X| = 3: there the fiber over a
        # nonzero point is a single f-orbit and F = 3
        if quandle.is_doubly_transitive():
            distinct = {
                lengths[(x, y)]
                for x in range(n)
                for y in range(n)
                if y != quandle.op(x, 0)
            }
            assert len(distinct) == 1
            (f_length,) = distinct
            if group.moduli[0] == 2:
                assert f_length == n - 1
            elif n == 3:
                assert not (q.AbHom.identity(group) + alpha).is_automorphism()
                assert f_length == 3
            else:
                assert f_length == (n - 1 if f_length % 2 == 0 else (n - 1) // 2)
    report(7, f"orbit-size laws verified on all {quandles_checked} affine corpus "
              "quandles of order <= 16 (with the size-3 boundary case pinned)")


def test_criterion_8_covering_suite(small_affine_corpus, q4, r3):
    # extend-then-quotient round trips
    round_trips = 0
    for name, quandle in small_affine_corpus:
        if quandle.size > 5:
            continue
        n = quandle.size
        for beta in normalized_cocycles(quandle, CoeffGroup.symmetric(2), 0):
            ext = extend(quandle, beta)
            assert is_covering(ext.total, quandle, ext.projection), name
            # the quotient by the fibers, read off one point per fiber
            m = ext.fiber_size
            table = [[ext.projection[row[y * m]] for y in range(n)]
                     for row in ext.total.table[::m]]
            assert table == [list(row) for row in quandle.table], name
            round_trips += 1
    # the coset-pair covering instance
    g33 = q.FinAbGroup((3, 3))
    swap = q.AbHom(g33, g33, [[0, 1], [1, 0]])
    total = q.coset_quandle(g33, [g33.zero], swap)
    base = q.coset_quandle(g33, [(t, t) for t in range(3)], swap)
    elems = list(g33.elements())

    def diag_coset(idx):
        member = min(g33.index_of(g33.add(elems[idx], (t, t))) for t in range(3))
        return next(i for i, block in enumerate(base.cosets) if member in block)

    assert is_covering(total, base, [diag_coset(i) for i in range(9)])

    # every covering of the two simply connected bases, fiber <= 3, is
    # equivalent to the trivial one: cocycle-level decision for all of them
    # (the extension-form decision path), brute-force isomorphism wherever
    # the total has at most 12 points
    z5 = build_affine("z5_l2")
    equivalences = 0
    for base_quandle in (r3, z5):
        for points in (2, 3):
            coeff = CoeffGroup.symmetric(points)
            trivial = q.trivial_cocycle(base_quandle, coeff)
            trivial_ext = extend(base_quandle, trivial)
            for beta in all_cocycles(base_quandle, coeff):
                assert q.are_cohomologous(beta, trivial)
                equivalences += 1
            for beta in normalized_cocycles(base_quandle, coeff, 0):
                ext = extend(base_quandle, beta)
                assert coverings_equivalent(ext, trivial_ext)
                if ext.total.size <= 12:
                    assert coverings_equivalent(
                        ext.as_covering(), trivial_ext.as_covering()
                    )
    # and the nontrivial order-4 extension is genuinely nontrivial
    s2 = CoeffGroup.symmetric(2)
    swap_elt = 1 - s2.identity
    beta_a = ConstantCocycle(q4, s2, beta_a_table(q4, s2, swap_elt))
    ext = extend(q4, beta_a)
    trivial_ext = extend(q4, q.trivial_cocycle(q4, s2))
    assert not coverings_equivalent(ext, trivial_ext)
    assert not coverings_equivalent(ext.as_covering(), trivial_ext.as_covering())
    report(8, f"{round_trips} extend/quotient round trips, coset covering verified, "
              f"{equivalences} coverings of R_3 and Q(Z_5) trivialized, order-4 "
              "extension stays nontrivial")


def test_criterion_9_knot_suite(r3):
    start = time.perf_counter()
    s2 = CoeffGroup.symmetric(2)
    identity_label = s2.label(s2.identity)
    trefoil = parse_gauss(GAUSS_CODES["trefoil_right"])
    assert col_count(trefoil, r3) == 6
    cocycles = all_cocycles(r3, s2)
    for beta in cocycles:
        invariant = cocycle_invariant(trefoil, r3, beta)
        assert len(invariant) == 6
        assert set(invariant) == {identity_label}
    # base-point independence
    beta = cocycles[0]
    rotations = {
        cocycle_invariant(trefoil, r3, beta, start=s)
        for s in range(len(trefoil.under_order))
    }
    assert len(rotations) == 1
    # Reidemeister fixtures: a rotated code and a kinked code
    fixtures = ["trefoil_right", "trefoil_right_rotated", "trefoil_right_kinked"]
    for beta in cocycles:
        counts = {col_count(parse_gauss(GAUSS_CODES[f]), r3) for f in fixtures}
        assert counts == {6}
        invariants = {
            cocycle_invariant(parse_gauss(GAUSS_CODES[f]), r3, beta) for f in fixtures
        }
        assert len(invariants) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(9, f"trefoil col_count 6 over R_3; all {len(cocycles)} cocycles give the "
              f"trivial multiset; base point and fixtures agree ({elapsed:.2f}s)")
