import math
from itertools import product

import pytest

import quandles as q
from conftest import (
    AFFINE_CORPUS_DEFS,
    EnvelopeElement,
    automorphism_order,
    companion,
    envelope_identity,
    envelope_inverse,
    envelope_mul,
    enumerate_subgroup,
    least_coset_reps,
    refuse_table,
)
from quandles.errors import BudgetExceeded, NotAutomorphism, NotConnected
from quandles.pi1 import MAX_PI1_RANK, pi1_presentation


def test_order_four_quandle_numbers(q4):
    pres = pi1_presentation(q4.group, q4.alpha)
    assert pres.tensor_order == 16
    assert pres.relator_order == 8
    assert pres.invariants == (2,)
    assert q.pi1_affine(q4) == (2,)
    assert not q.is_simply_connected_affine(q4)


def test_cyclic_connected_always_trivial():
    for m, n in [(15, 2), (9, 2), (25, 3), (49, 5)]:
        group = q.FinAbGroup.cyclic(m)
        quandle = q.affine_quandle(group, q.AbHom.scaling(group, n))
        assert q.pi1_affine(quandle) == ()
        assert q.is_simply_connected_affine(quandle)


# pi1 of the corpus entries that are not simply connected
CORPUS_PI1 = {"q4": (2,), "z3sq_neg": (3,), "z4sq": (4,)}


def test_pi1_builds_no_table(monkeypatch):
    monkeypatch.setattr(q.FinAbGroup, "cayley_table", refuse_table)
    count = 0
    for m in range(1, 51):
        group = q.FinAbGroup.cyclic(m)
        for n in range(m):
            if math.gcd(m, n) == 1 and math.gcd(m, 1 - n) == 1:
                quandle = q.affine_quandle(group, q.AbHom.scaling(group, n))
                assert quandle.size == m
                assert q.pi1_affine(quandle) == (), (m, n)
                assert q.is_simply_connected_affine(quandle)
                count += 1
    assert count == 413
    for name, moduli, matrix in AFFINE_CORPUS_DEFS:
        quandle = q.affine_quandle(q.FinAbGroup(moduli), matrix)
        assert quandle.size == math.prod(moduli)
        assert q.pi1_affine(quandle) == CORPUS_PI1.get(name, ()), name


@pytest.mark.parametrize(
    "p, coeffs",
    [
        (2, [1, 0, 1, 0, 0]),  # x^5 + x^2 + 1 over F_2
        (3, [1, 2, 0, 0]),  # x^4 + x + 2 over F_3
    ],
)
def test_doubly_transitive_orders_32_and_81(p, coeffs):
    k = len(coeffs)
    group = q.FinAbGroup((p,) * k)
    alpha = q.AbHom(group, group, companion(coeffs))
    # alpha is multiplication by a primitive element of F_q
    assert automorphism_order(alpha) == p**k - 1
    assert q.pi1_affine(q.affine_quandle(group, alpha)) == ()


def test_pi1_rank_limit():
    group = q.FinAbGroup((3,) * (MAX_PI1_RANK + 1))
    minus_one = q.AbHom.scaling(group, -1)
    assert q.affine_is_connected(group, minus_one)
    # the rank comes first: the zero matrix, no automorphism, is over budget too
    for alpha in (minus_one, q.AbHom.scaling(group, 0)):
        with pytest.raises(BudgetExceeded):
            pi1_presentation(group, alpha)


def test_pi1_presentation_checks_its_input():
    """pi1_presentation checks the matrix, then automorphism, then
    connectivity, so it refuses what pi1_affine and the CLI refuse: the projection quandle
    over Z_5 is not connected, and doubling on Z_4 is no automorphism."""
    z4, z5 = q.FinAbGroup((4,)), q.FinAbGroup((5,))
    with pytest.raises(NotConnected):
        pi1_presentation(z5, [[1]])
    with pytest.raises(NotAutomorphism):
        pi1_presentation(z4, [[2]])
    with pytest.raises(NotAutomorphism):
        pi1_presentation(z4, q.AbHom.scaling(z5, 2))
    with pytest.raises(ValueError):
        pi1_presentation(z4, [[2, 1]])


def test_pi1_affine_reduces_four_lattices(q4, monkeypatch):
    """One pi1_affine call makes four lattice reductions: the automorphism
    proof of the quandle, the two proofs in pi1_presentation, and the
    relator subgroup."""
    calls = []
    reduce = q.subgroup_generated

    def counted(*args):
        calls.append(1)
        return reduce(*args)

    monkeypatch.setattr("quandles.abelian.subgroup_generated", counted)
    monkeypatch.setattr("quandles.pi1.subgroup_generated", counted)
    assert q.pi1_affine(q.affine_quandle(q4.group, q4.alpha)) == (2,)
    assert len(calls) == 4


def test_coset_rep_matches_enumeration(affine_corpus):
    for name, quandle in affine_corpus:
        pres = pi1_presentation(quandle.group, quandle.alpha)
        square = pres.tensor.group
        if square.order > 4096:
            continue
        reps = least_coset_reps(square, enumerate_subgroup(square, pres.relators))
        assert all(pres.relator_subgroup.coset_rep(x) == reps[x] for x in square.elements()), name


def test_trivial_group_trivial_pi1():
    group = q.FinAbGroup.trivial()
    pres = pi1_presentation(group, q.AbHom.identity(group))
    assert pres.invariants == ()


def test_doubly_transitive_examples(doubly_transitive_corpus):
    for name, quandle in doubly_transitive_corpus:
        expected = (2,) if quandle.size == 4 else ()
        assert q.pi1_affine(quandle) == expected, name


def test_prime_order_trivial():
    for prime in (2, 3, 5, 7, 11, 13):
        group = q.FinAbGroup.cyclic(prime)
        for n in range(2, prime):
            if math.gcd(prime, n) == 1 and math.gcd(prime, 1 - n) == 1:
                quandle = q.affine_quandle(group, q.AbHom.scaling(group, n))
                assert q.is_simply_connected_affine(quandle)


def test_not_connected_raises():
    z4 = q.FinAbGroup((4,))
    quandle = q.affine_quandle(z4, q.AbHom.scaling(z4, 3))
    with pytest.raises(NotConnected):
        q.pi1_affine(quandle)


def test_pi1_rejects_plain_tables(r3):
    plain = q.Quandle(r3.table)
    with pytest.raises(TypeError):
        q.pi1_affine(plain)


def test_envelope_identity_law(q4):
    pres = pi1_presentation(q4.group, q4.alpha)
    e = envelope_identity(pres)
    samples = [
        EnvelopeElement(k, x, pres.relator_subgroup.coset_rep(t))
        for k in (-1, 0, 2)
        for x in q4.group.elements()[:2]
        for t in [pres.tensor.group.zero]
    ]
    for a in samples:
        assert envelope_mul(pres, e, a) == a
        assert envelope_mul(pres, a, e) == a


def test_envelope_associativity_exhaustive(q4):
    pres = pi1_presentation(q4.group, q4.alpha)
    elements = [
        EnvelopeElement(1, x, pres.relator_subgroup.coset_rep(pres.tensor.group.zero))
        for x in q4.group.elements()
    ]
    for a, b, c in product(elements, repeat=3):
        left = envelope_mul(pres, envelope_mul(pres, a, b), c)
        right = envelope_mul(pres, a, envelope_mul(pres, b, c))
        assert left == right


def test_envelope_associativity_mixed_shifts(q4):
    pres = pi1_presentation(q4.group, q4.alpha)
    cosets = sorted({pres.relator_subgroup.coset_rep(t) for t in pres.tensor.group.elements()})
    elements = [
        EnvelopeElement(k, x, a)
        for k in (-1, 0, 1)
        for x in q4.group.elements()[:3]
        for a in cosets
    ]
    for a, b in product(elements[:8], repeat=2):
        for c in elements[:4]:
            left = envelope_mul(pres, envelope_mul(pres, a, b), c)
            right = envelope_mul(pres, a, envelope_mul(pres, b, c))
            assert left == right


def test_envelope_inverse(q4, r3):
    for quandle in (q4, r3):
        pres = pi1_presentation(quandle.group, quandle.alpha)
        e = envelope_identity(pres)
        cosets = sorted({pres.relator_subgroup.coset_rep(t) for t in pres.tensor.group.elements()})
        for k in (-2, -1, 0, 1, 3):
            for x in quandle.group.elements():
                for a in cosets:
                    elem = EnvelopeElement(k, x, a)
                    inv = envelope_inverse(pres, elem)
                    assert envelope_mul(pres, elem, inv) == e
                    assert envelope_mul(pres, inv, elem) == e


def test_diagonal_tensors_congruent_under_alpha(affine_corpus):
    # x (x) x and alpha(x) (x) alpha(x) agree modulo the relator subgroup
    for name, quandle in affine_corpus:
        pres = pi1_presentation(quandle.group, quandle.alpha)
        square = pres.tensor
        for x in quandle.group.elements():
            ax = quandle.alpha(x)
            diff = square.group.sub(
                square.pure_tensor(x, x), square.pure_tensor(ax, ax)
            )
            assert diff in pres.relator_subgroup, name


def test_doubly_transitive_large_tensors_vanish(doubly_transitive_corpus):
    # for |X| > 4 every pure tensor lies in the relator subgroup
    for name, quandle in doubly_transitive_corpus:
        if quandle.size <= 4:
            continue
        pres = pi1_presentation(quandle.group, quandle.alpha)
        square = pres.tensor
        for x in quandle.group.elements():
            for y in quandle.group.elements():
                assert (
                    square.pure_tensor(x, y) in pres.relator_subgroup
                ), name


def test_one_plus_alpha_bijective_on_doubly_transitive(doubly_transitive_corpus):
    for name, quandle in doubly_transitive_corpus:
        if quandle.size <= 3:
            continue
        one_plus = q.AbHom.identity(quandle.group) + quandle.alpha
        assert one_plus.is_automorphism(), name


def test_relator_count_is_rank_squared(affine_corpus):
    for name, quandle in affine_corpus:
        pres = pi1_presentation(quandle.group, quandle.alpha)
        assert len(pres.relators) == quandle.group.rank ** 2, name
        assert pres.relator_order * math.prod(pres.invariants) == pres.tensor_order, name
