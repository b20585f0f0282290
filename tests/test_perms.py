import pytest
from hypothesis import given
from hypothesis import strategies as st
from itertools import permutations as iter_permutations

from conftest import pair_perm, reference_is_doubly_transitive
from quandles.errors import BudgetExceeded
from quandles.perms import Perm, PermGroup, closure, orbits

perm8 = st.permutations(tuple(range(8))).map(Perm)
perm6 = st.permutations(tuple(range(6))).map(Perm)


def apply_chain(ps, x):
    # independent composition semantics: apply right-to-left, point by point
    for p in reversed(ps):
        x = p.images[x]
    return x


def test_compose_identity():
    p = Perm([2, 0, 1])
    assert Perm.identity(3) * p == p
    assert p * Perm.identity(3) == p


def test_compose_involution():
    swap = Perm.from_cycles(2, [(0, 1)])
    assert swap * swap == Perm.identity(2)


def test_compose_hand_oracle():
    a = Perm.from_cycles(3, [(0, 1, 2)])
    b = Perm.from_cycles(3, [(0, 1)])
    expected = Perm(apply_chain([a, b], x) for x in range(3))
    assert expected == Perm([2, 1, 0])  # computed by hand: 0->1->2, 1->0->1, 2->2->0
    assert a * b == expected


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Perm.identity(2) * Perm.identity(3)


def test_inverse_examples():
    assert Perm.identity(4).inverse() == Perm.identity(4)
    assert Perm.from_cycles(3, [(0, 1, 2)]).inverse() == Perm.from_cycles(3, [(0, 2, 1)])


@given(perm8)
def test_inverse_roundtrip(p):
    assert p * p.inverse() == Perm.identity(8)
    assert p.inverse() * p == Perm.identity(8)


@given(perm6, perm6, perm6)
def test_compose_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perm6, perm6)
def test_compose_matches_pointwise_application(a, b):
    assert (a * b).images == tuple(apply_chain([a, b], x) for x in range(6))


def test_closure_small():
    swap = Perm.from_cycles(2, [(0, 1)])
    assert closure([swap]) == frozenset({swap, Perm.identity(2)})


def test_closure_sym3():
    gens = [Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])]
    expected = frozenset(Perm(p) for p in iter_permutations(range(3)))
    assert closure(gens) == expected


def test_closure_cap():
    ten_cycle = Perm.from_cycles(10, [tuple(range(10))])
    with pytest.raises(BudgetExceeded):
        closure([ten_cycle], cap=5)


# a degree up to 7 with up to three generators, the identity included
small_generator_sets = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(tuple(range(n))).map(Perm), max_size=3)
    )
)


@given(small_generator_sets)
def test_chain_matches_closure(degree_gens):
    degree, gens = degree_gens
    group = PermGroup(gens, degree=degree)
    elements = closure(gens or [Perm.identity(degree)])
    assert group.order() == len(elements)
    for images in iter_permutations(range(degree)):
        assert (Perm(images) in group) == (Perm(images) in elements)
    if degree >= 2:
        assert group.is_doubly_transitive() == reference_is_doubly_transitive(gens, degree)


@given(st.lists(st.permutations(tuple(range(5))).map(Perm), min_size=1, max_size=3))
def test_closure_order_divides_factorial(gens):
    order = len(closure(gens))
    assert 120 % order == 0


def test_orbit_examples():
    assert orbits([Perm.identity(3).images], 3) == ((0, 1, 2), ((0,), (1,), (2,)))
    assert orbits([Perm.from_cycles(3, [(0, 1, 2)]).images], 3) == ((0, 0, 0), ((0, 1, 2),))
    # left translations of the three-element dihedral quandle
    rows = [(0, 2, 1), (2, 1, 0), (1, 0, 2)]
    assert orbits(rows, 3) == ((0, 0, 0), ((0, 1, 2),))
    # blocks ordered by least point and sorted, whatever order BFS meets them in
    mixed = Perm.from_cycles(6, [(0, 4, 2), (3, 1)]).images
    assert orbits([mixed], 6) == ((0, 1, 0, 1, 0, 2), ((0, 2, 4), (1, 3), (5,)))
    assert orbits([], 2) == ((0, 1), ((0,), (1,)))


def test_transitivity_flags():
    cyclic = PermGroup([Perm.from_cycles(3, [(0, 1, 2)])])
    assert len(orbits([g.images for g in cyclic.generators], 3)[1]) == 1
    assert not cyclic.is_doubly_transitive()
    sym3 = PermGroup([Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])])
    assert sym3.is_doubly_transitive()


def test_double_transitivity_needs_degree_two():
    with pytest.raises(ValueError):
        PermGroup([Perm.identity(1)]).is_doubly_transitive()


@given(st.lists(st.permutations(tuple(range(5))).map(Perm), min_size=1, max_size=3))
def test_doubly_transitive_implies_transitive(gens):
    group = PermGroup(gens)
    if group.is_doubly_transitive():
        assert len(orbits([g.images for g in gens], 5)[1]) == 1


def test_cycle_structure():
    def lengths(p):
        return sorted(map(len, p.cycles(include_fixed=True)), reverse=True)

    assert lengths(Perm.identity(4)) == [1, 1, 1, 1]
    assert lengths(Perm.from_cycles(4, [(0, 1, 2)])) == [3, 1]
    assert Perm.from_cycles(4, [(0, 1, 2)]).cycles() == [(0, 1, 2)]


def test_pair_perm_acts_diagonally():
    p = Perm.from_cycles(3, [(0, 1, 2)])
    pp = pair_perm(p)
    assert pp(0 * 3 + 1) == 1 * 3 + 2


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
