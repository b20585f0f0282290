import pytest
from hypothesis import given
from hypothesis import strategies as st
from itertools import permutations as iter_permutations

import quandles as q
from conftest import from_cycles, pair_perm, reference_is_doubly_transitive
from quandles.errors import BudgetExceeded
from quandles.perms import PermGroup, _after, _inverse, closure, cycles, orbits

perm8 = st.permutations(tuple(range(8)))
perm6 = st.permutations(tuple(range(6)))


def identity(degree):
    return tuple(range(degree))


def apply_chain(ps, x):
    # independent composition semantics: apply right-to-left, point by point
    for p in reversed(ps):
        x = p[x]
    return x


def test_compose_identity():
    p = (2, 0, 1)
    assert _after(identity(3), p) == p
    assert _after(p, identity(3)) == p


def test_compose_involution():
    swap = from_cycles(2, [(0, 1)])
    assert _after(swap, swap) == identity(2)


def test_compose_hand_oracle():
    a = from_cycles(3, [(0, 1, 2)])
    b = from_cycles(3, [(0, 1)])
    expected = tuple(apply_chain([a, b], x) for x in range(3))
    assert expected == (2, 1, 0)  # computed by hand: 0->1->2, 1->0->1, 2->2->0
    assert _after(a, b) == expected


def test_compose_degree_mismatch():
    """Permutations of two degrees make no group and no conjugation quandle."""
    with pytest.raises(ValueError):
        PermGroup([identity(2), identity(3)])
    with pytest.raises(ValueError):
        PermGroup([identity(2)], degree=3)
    with pytest.raises(ValueError):
        closure([identity(3), identity(2)])
    with pytest.raises(ValueError):
        q.conjugation_quandle([identity(2), identity(3)])


def test_inverse_examples():
    assert _inverse(identity(4)) == identity(4)
    assert _inverse(from_cycles(3, [(0, 1, 2)])) == from_cycles(3, [(0, 2, 1)])


@given(perm8)
def test_inverse_roundtrip(p):
    assert _after(p, _inverse(p)) == identity(8)
    assert _after(_inverse(p), p) == identity(8)


@given(perm6, perm6, perm6)
def test_compose_associative(a, b, c):
    assert _after(_after(a, b), c) == _after(a, _after(b, c))


@given(perm6, perm6)
def test_compose_matches_pointwise_application(a, b):
    assert _after(a, b) == tuple(apply_chain([a, b], x) for x in range(6))


def test_closure_small():
    swap = from_cycles(2, [(0, 1)])
    assert closure([swap]) == frozenset({swap, identity(2)})


def test_closure_sym3():
    gens = [from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])]
    assert closure(gens) == frozenset(iter_permutations(range(3)))


def test_closure_cap():
    ten_cycle = from_cycles(10, [tuple(range(10))])
    with pytest.raises(BudgetExceeded):
        closure([ten_cycle], cap=5)


def test_group_elements_take_no_cap():
    """The element list is cached, so a cap on ``PermGroup.elements`` would
    hold on the first call only; ``closure`` keeps its cap."""
    group = PermGroup([from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(TypeError):
        group.elements(cap=2)
    assert len(group.elements()) == 4


# a degree up to 7 with up to three generators, the identity included
small_generator_sets = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(tuple(range(n))), max_size=3)
    )
)


@given(small_generator_sets)
def test_chain_matches_closure(degree_gens):
    degree, gens = degree_gens
    group = PermGroup(gens, degree=degree)
    elements = closure(gens or [identity(degree)])
    assert group.order() == len(elements)
    for images in iter_permutations(range(degree)):
        assert (images in group) == (images in elements)
    if degree >= 2:
        assert group.is_doubly_transitive() == reference_is_doubly_transitive(gens, degree)


@given(st.lists(st.permutations(tuple(range(5))), min_size=1, max_size=3))
def test_closure_order_divides_factorial(gens):
    order = len(closure(gens))
    assert 120 % order == 0


def test_orbit_examples():
    assert orbits([identity(3)], 3) == ((0, 1, 2), ((0,), (1,), (2,)))
    assert orbits([from_cycles(3, [(0, 1, 2)])], 3) == ((0, 0, 0), ((0, 1, 2),))
    # left translations of the three-element dihedral quandle
    rows = [(0, 2, 1), (2, 1, 0), (1, 0, 2)]
    assert orbits(rows, 3) == ((0, 0, 0), ((0, 1, 2),))
    # blocks ordered by least point and sorted, whatever order BFS meets them in
    mixed = from_cycles(6, [(0, 4, 2), (3, 1)])
    assert orbits([mixed], 6) == ((0, 1, 0, 1, 0, 2), ((0, 2, 4), (1, 3), (5,)))
    assert orbits([], 2) == ((0, 1), ((0,), (1,)))


def test_transitivity_flags():
    cyclic = PermGroup([from_cycles(3, [(0, 1, 2)])])
    assert len(orbits(cyclic.generators, 3)[1]) == 1
    assert not cyclic.is_doubly_transitive()
    sym3 = PermGroup([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])
    assert sym3.is_doubly_transitive()


def test_double_transitivity_needs_degree_two():
    with pytest.raises(ValueError):
        PermGroup([identity(1)]).is_doubly_transitive()


@given(st.lists(st.permutations(tuple(range(5))), min_size=1, max_size=3))
def test_doubly_transitive_implies_transitive(gens):
    group = PermGroup(gens)
    if group.is_doubly_transitive():
        assert len(orbits(gens, 5)[1]) == 1


def test_cycle_structure():
    def lengths(p):
        return sorted(map(len, cycles(p)), reverse=True)

    assert lengths(identity(4)) == [1, 1, 1, 1]
    assert lengths(from_cycles(4, [(0, 1, 2)])) == [3, 1]
    # every cycle from its least point, in the order of those points
    assert cycles(from_cycles(4, [(0, 1, 2)])) == [(0, 1, 2), (3,)]
    assert cycles(from_cycles(6, [(4, 2, 0), (5, 1)])) == [(0, 4, 2), (1, 5), (3,)]
    assert cycles(()) == []


def test_pair_perm_acts_diagonally():
    p = from_cycles(3, [(0, 1, 2)])
    pp = pair_perm(p)
    assert pp[0 * 3 + 1] == 1 * 3 + 2


def test_rejects_non_permutation():
    for images in [(0, 0, 1), (0, 1, 3), (0, -1, 2), (0, 1.0, 2), (1, True, 2)]:
        for build in (PermGroup, closure, q.conjugation_quandle):
            with pytest.raises(ValueError, match="not a permutation"):
                build([images])
        with pytest.raises(ValueError, match="not a permutation"):
            PermGroup([(0, 1, 2), images])


def test_membership_of_non_permutations_is_false():
    """``in`` answers False, and raises nothing, for a sequence of another
    length, one that is no permutation, or an object that is no sequence."""
    group = PermGroup([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])
    assert (1, 0, 2) in group and [1, 0, 2] in group
    for images in [(0, 1), (0, 1, 2, 3), (0, 0, 1), (0, 1, 3), (0, -1, 2), (0, 1.0, 2),
                   (True, 0, 2), "abc", 7, None]:
        assert images not in group
