import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.abelian import (
    AbHom,
    FinAbGroup,
    quotient_invariants,
    smith_normal_form,
    subgroup_generated,
    tensor_square,
    twisted_tensor_relators,
)
from conftest import endomorphism, enumerate_subgroup, least_coset_reps


def quotient_order_multiset(group, sub):
    """Brute-force oracle: coset count and coset orders by direct enumeration."""
    elements = enumerate_subgroup(group, sub.generators)
    orders = []
    for x in set(least_coset_reps(group, elements).values()):
        n = 1
        cur = x
        while cur not in elements:
            cur = group.add(cur, x)
            n += 1
        orders.append(n)
    return sorted(orders)


# groups of rank <= 3 with moduli <= 8, trivial factors included
small_moduli = st.lists(st.integers(1, 8), max_size=3)


def invariant_order_multiset(invariants):
    group = FinAbGroup(tuple(invariants))
    return sorted(group.order_of(x) for x in group.elements())


def test_arithmetic_examples():
    z6 = FinAbGroup((6,))
    assert z6.add((4,), (5,)) == (3,)
    z2z4 = FinAbGroup((2, 4))
    assert z2z4.order_of((1, 2)) == 2
    z9 = FinAbGroup((9,))
    assert z9.order_of((3,)) == 3


def test_element_indexing_roundtrip():
    g = FinAbGroup((2, 3, 2))
    for i, x in enumerate(g.elements()):
        assert g.index_of(x) == i


def test_descriptor_roundtrip():
    g = FinAbGroup((2, 4))
    assert g.descriptor() == "Z 2 x Z 4"
    assert FinAbGroup.from_descriptor("Z 2 x Z 4") == g
    assert FinAbGroup.from_descriptor("Z2xZ4") == g
    assert FinAbGroup.from_descriptor("Z 1") == FinAbGroup.trivial()
    with pytest.raises(ValueError):
        FinAbGroup.from_descriptor("C2 x C4")


def test_scaling_automorphism_flags():
    z5 = FinAbGroup((5,))
    assert AbHom.scaling(z5, 2).is_automorphism()
    z4 = FinAbGroup((4,))
    assert not AbHom.scaling(z4, 2).is_automorphism()
    z22 = FinAbGroup((2, 2))
    assert AbHom(z22, z22, [[1, 1], [1, 0]]).is_automorphism()


def test_illegal_matrix_rejected():
    z2 = FinAbGroup((2,))
    z4 = FinAbGroup((4,))
    # the image of the order-2 generator would have order 4
    with pytest.raises(ValueError):
        AbHom(z2, z4, [[1]])


def test_hom_matrix_shape_and_entries_checked():
    z5 = FinAbGroup((5,))
    # a surplus row was dropped by zip, a float entry truncated by int()
    for matrix in ([[2], [3]], [[2.9]], [[True]], [], [[2, 3]]):
        with pytest.raises(ValueError):
            AbHom(z5, z5, matrix)
    trivial = FinAbGroup.trivial()
    assert AbHom(trivial, trivial, []).matrix == ()
    with pytest.raises(ValueError):
        AbHom(trivial, trivial, [[]])


def test_moduli_must_be_integers():
    for moduli in ((4.7,), (True,), ("4",), (0,), (-2,)):
        with pytest.raises(ValueError):
            FinAbGroup(moduli)
    assert FinAbGroup([2, 4]).moduli == (2, 4)


def test_hom_powers():
    z5 = FinAbGroup((5,))
    assert AbHom.scaling(z5, 2).pow(2) == AbHom.scaling(z5, 4)
    z3 = FinAbGroup((3,))
    one_minus = AbHom.identity(z3) - AbHom.scaling(z3, 2)
    assert one_minus == AbHom.scaling(z3, 2)  # 1 - 2 = -1 = 2 mod 3
    z22 = FinAbGroup((2, 2))
    alpha = AbHom(z22, z22, [[1, 1], [1, 0]])
    cubed = alpha.pow(3)
    # oracle: apply alpha three times elementwise
    for x in z22.elements():
        assert cubed(x) == alpha(alpha(alpha(x))) == x
    assert cubed == AbHom.identity(z22)


def test_hom_negative_power():
    for alpha in (AbHom.scaling(FinAbGroup((5,)), 2), AbHom.scaling(FinAbGroup((4,)), 2)):
        with pytest.raises(ValueError):
            alpha.pow(-1)


def test_tensor_square_examples():
    assert tensor_square(FinAbGroup((2, 2))).group.order == 16
    t6 = tensor_square(FinAbGroup((6,)))
    assert t6.group.moduli == (6,)
    assert t6.pure_tensor((2,), (3,)) == (0,)
    t = tensor_square(FinAbGroup((2, 3)))
    assert t.group.moduli == (2, 1, 1, 3)
    assert t.group.order == 6


@settings(max_examples=60)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=3), st.data())
def test_pure_tensor_biadditive(moduli, data):
    g = FinAbGroup(tuple(moduli))
    if g.order > 64:
        return
    t = tensor_square(g)
    elems = g.elements()
    pick = st.sampled_from(elems)
    x, x2, y = data.draw(pick), data.draw(pick), data.draw(pick)
    left = t.pure_tensor(g.add(x, x2), y)
    right = t.group.add(t.pure_tensor(x, y), t.pure_tensor(x2, y))
    assert left == right
    left = t.pure_tensor(y, g.add(x, x2))
    right = t.group.add(t.pure_tensor(y, x), t.pure_tensor(y, x2))
    assert left == right


def test_relators_order4_example():
    g = FinAbGroup((2, 2))
    alpha = AbHom(g, g, [[1, 1], [1, 0]])
    t = tensor_square(g)
    relators = twisted_tensor_relators(g, alpha)
    assert len(relators) == 4
    # the span must equal the span of e1(x)e1 + e2(x)e1, e2(x)e1 + e2(x)e2, e1(x)e2
    e1, e2 = (1, 0), (0, 1)
    target_gens = [
        t.group.add(t.pure_tensor(e1, e1), t.pure_tensor(e2, e1)),
        t.group.add(t.pure_tensor(e2, e1), t.pure_tensor(e2, e2)),
        t.pure_tensor(e1, e2),
    ]
    span = subgroup_generated(t.group, relators)
    target = subgroup_generated(t.group, target_gens)
    assert all(x in span for x in target_gens) and all(x in target for x in relators)
    assert enumerate_subgroup(t.group, relators) == enumerate_subgroup(t.group, target_gens)
    assert span.order == 8


def test_relators_identity_trivial():
    g = FinAbGroup((2,))
    relators = twisted_tensor_relators(g, AbHom.identity(g))
    assert all(r == tensor_square(g).group.zero for r in relators)
    span = subgroup_generated(tensor_square(g).group, relators)
    assert span.order == 1


def test_relators_z5_scaling_two():
    g = FinAbGroup((5,))
    relators = twisted_tensor_relators(g, AbHom.scaling(g, 2))
    # single relator 1(x)1 - 1(x)2 = -(1(x)1) = 4 generates everything
    assert relators == [(4,)]
    assert subgroup_generated(tensor_square(g).group, relators).order == 5


def test_subgroup_generated_examples():
    g = FinAbGroup((6,))
    assert subgroup_generated(g, [(0,)]).order == 1
    sub = subgroup_generated(g, [(4,)])
    assert {x for x in g.elements() if x in sub} == {(0,), (2,), (4,)}
    assert sub.order == 3
    assert [sub.coset_rep(x) for x in g.elements()] == [(0,), (1,), (0,), (1,), (0,), (1,)]


@settings(max_examples=150, deadline=None)
@given(small_moduli, st.data())
def test_lattice_matches_enumeration(moduli, data):
    group = FinAbGroup(tuple(moduli))
    gens = data.draw(st.lists(st.sampled_from(group.elements()), max_size=3))
    sub = subgroup_generated(group, gens)
    elements = enumerate_subgroup(group, gens)
    assert sub.order == len(elements)
    reps = least_coset_reps(group, elements)
    for x in group.elements():
        assert (x in sub) == (x in elements)
        assert sub.coset_rep(x) == reps[x]


@settings(max_examples=150, deadline=None)
@given(small_moduli, st.data())
def test_is_automorphism_matches_bijectivity(moduli, data):
    group = FinAbGroup(tuple(moduli))
    entries = st.lists(st.integers(0, 7), min_size=group.rank**2, max_size=group.rank**2)
    h = endomorphism(group, data.draw(entries))
    images = {h(x) for x in group.elements()}
    assert h.is_automorphism() == (len(images) == group.order)


def test_quotient_invariants_examples():
    g = FinAbGroup((2, 2, 2, 2))
    full = subgroup_generated(g, g.basis())
    assert quotient_invariants(g, full) == ()
    z4 = FinAbGroup((4,))
    assert quotient_invariants(z4, subgroup_generated(z4, [(2,)])) == (2,)
    # the order-4 quandle's relator subgroup has index 2
    g22 = FinAbGroup((2, 2))
    alpha = AbHom(g22, g22, [[1, 1], [1, 0]])
    t = tensor_square(g22)
    sub = subgroup_generated(t.group, twisted_tensor_relators(g22, alpha))
    assert quotient_invariants(t.group, sub) == (2,)


def test_smith_normal_form_known():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


@pytest.mark.parametrize("matrix", [[[2.9, True]], [[2.0, 4]], [[True, 0], [0, 1]], [["2"]]])
def test_smith_normal_form_refuses_non_int_entries(matrix):
    """A float is not truncated and a bool is no 0 or 1: only ints enter."""
    with pytest.raises(ValueError):
        smith_normal_form(matrix)


@settings(max_examples=80)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4), min_size=1, max_size=4)
)
def test_smith_normal_form_divisibility(rows):
    width = len(rows[0])
    rows = [row[:width] + [0] * (width - len(row)) for row in rows]
    diag = smith_normal_form(rows)
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    if nonzero:
        entries = [v for row in rows for v in row if v]
        if entries:
            assert nonzero[0] == math.gcd(*entries)


def determinant(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * v * determinant([row[:j] + row[j + 1:] for row in m[1:]])
        for j, v in enumerate(m[0])
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_normal_form_determinantal_divisors(nrows, ncols, data):
    """d_1 ... d_k is the gcd of the k x k minors, for every k."""
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    diag = smith_normal_form(rows)
    for k in range(1, min(nrows, ncols) + 1):
        minors = [
            determinant([[rows[i][j] for j in cols] for i in rws])
            for rws in combinations(range(nrows), k)
            for cols in combinations(range(ncols), k)
        ]
        assert math.prod(diag[:k]) == math.gcd(*minors)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quotient_against_coset_oracle(data):
    moduli = tuple(
        data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3), label="moduli")
    )
    group = FinAbGroup(moduli)
    if group.order > 216:
        return
    gens = data.draw(
        st.lists(st.sampled_from(group.elements()), min_size=0, max_size=3),
        label="gens",
    )
    sub = subgroup_generated(group, gens)
    invariants = quotient_invariants(group, sub)
    assert math.prod(invariants) * sub.order == group.order
    assert invariant_order_multiset(invariants) == quotient_order_multiset(group, sub)


def test_quotient_oracle_at_four_thousand():
    # a deterministic desk-scale case at the stated oracle bound
    group = FinAbGroup((8, 8, 8, 8))
    assert group.order == 4096
    sub = subgroup_generated(group, [(2, 0, 4, 0), (0, 2, 0, 0)])
    invariants = quotient_invariants(group, sub)
    assert math.prod(invariants) * sub.order == group.order
    assert invariant_order_multiset(invariants) == quotient_order_multiset(group, sub)


def test_automorphism_image_is_whole_group():
    for moduli, matrix in [
        ((5,), [[2]]),
        ((2, 2), [[1, 1], [1, 0]]),
        ((3, 3), [[0, 1], [1, 2]]),
        ((2, 4), [[1, 0], [0, 3]]),
    ]:
        g = FinAbGroup(moduli)
        h = AbHom(g, g, matrix)
        assert h.is_automorphism()
        assert {h(x) for x in g.elements()} == set(g.elements())
