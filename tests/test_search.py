"""The one search kernel against a brute force over the product of the domains."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles as q
from conftest import build_affine, reference_division_rows, transposition_quandle
from quandles.cocycles import CoeffGroup
from quandles.errors import BudgetExceeded, NotLatin
from quandles.search import division_rows, find, solutions, union


# latin and non-latin quandles (right division None), and group tables
CASES = {
    "r3": build_affine("r3"),
    "q4": build_affine("q4"),
    "transpositions4": transposition_quandle(4),
    "projection3": q.projection_quandle(3),
    "Sym3": CoeffGroup.symmetric(3),
    "Z4": CoeffGroup.abelian((4,)),
}


def brute_force(table, relations, values, domains, distinct):
    """Every tuple of the product of the domains, in product order, that
    agrees with the given values, meets every relation and, if asked,
    repeats no value."""
    return [
        point
        for point in product(*domains)
        if all(v < 0 or v == p for v, p in zip(values, point))
        and all(point[top] == table[point[mid]][point[bot]] for top, mid, bot in relations)
        and (not distinct or len(set(point)) == len(point))
    ]


def run(op, relations, values, domains, distinct, budget):
    return list(solutions(op, relations, values, domains=domains, distinct=distinct,
                          budget=budget, what="test"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_solutions_match_brute_force(name, data):
    op = CASES[name]
    table = op.table
    size = len(table)
    nvars = data.draw(st.integers(1, 4), label="variables")
    var = st.integers(0, nvars - 1)
    relations = data.draw(st.lists(st.tuples(var, var, var), max_size=5), label="relations")
    domains = [
        data.draw(st.permutations(range(size)).flatmap(
            lambda p: st.integers(0, size).map(lambda k: p[:k])), label=f"domain {v}")
        for v in range(nvars)
    ]
    values = data.draw(st.lists(st.one_of(st.just(-1), st.integers(0, size - 1)),
                                min_size=nvars, max_size=nvars), label="given")
    distinct = data.draw(st.booleans(), label="distinct")
    expected = brute_force(table, relations, values, domains, distinct)

    # the least passing budget, by bisection; every completion is a state
    def passes(budget):
        try:
            return run(op, relations, values, domains, distinct, budget) == expected
        except BudgetExceeded:
            return False

    low, high = -1, 10**6  # passes(high), and passes(low) is taken as false
    assert passes(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if passes(mid) else (mid, high)
    # each state but the root is the prefix of the free variables up to the
    # one it branches on; with no relations every such prefix is a state
    free = [len(domain) for domain, v in zip(domains, values) if v < 0]
    bound = 1 + sum(math.prod(free[:k + 1]) for k in range(len(free)))
    assert len(expected) <= high <= bound
    if not relations and not distinct and all(v < 0 or v in d for v, d in zip(values, domains)):
        assert high == bound
    if high:
        with pytest.raises(BudgetExceeded):
            run(op, relations, values, domains, distinct, high - 1)
    # the default domain is every row of the table
    full = [range(size)] * nvars
    assert list(solutions(op, relations, values, distinct=distinct, budget=10**6,
                          what="test")) == brute_force(table, relations, values, full, distinct)


def test_division_rows_match_reference(small_affine_corpus, r3):
    """division_rows, the cached rows of quandles and groups, is_latin and
    both divisions agree with the brute-force inverses."""
    trivial = q.extend(r3, q.trivial_cocycle(r3, CoeffGroup.symmetric(2))).total
    quandles = [quandle for _, quandle in small_affine_corpus] + [
        q.projection_quandle(1), q.projection_quandle(3), transposition_quandle(4), trivial]
    groups = [CoeffGroup.symmetric(k) for k in range(1, 5)]
    groups += [CoeffGroup.abelian((4,)), CoeffGroup.abelian((2, 3))]
    assert reference_division_rows(trivial.table)[1] is None  # not latin
    for op in quandles + groups:
        expected = reference_division_rows(op.table)
        assert division_rows(op.table) == expected
        assert op._division_rows() == expected
    for quandle in quandles:
        left, right = reference_division_rows(quandle.table)
        assert q.Quandle(quandle.table, _checked=True).is_latin == (right is not None)
        assert quandle.is_latin == (right is not None)
        n = quandle.size
        for x in range(n):
            for y in range(n):
                assert quandle.left_divide(x, y) == left[x][y]
                if right is None:
                    with pytest.raises(NotLatin):
                        quandle.right_divide(x, y)
                else:
                    assert quandle.right_divide(x, y) == right[y][x]


def test_union_find_merges_under_least_root():
    parent = list(range(6))
    assert union(parent, 4, 2) and union(parent, 2, 5) and not union(parent, 5, 4)
    assert [find(parent, x) for x in range(6)] == [0, 1, 2, 3, 2, 2]
