"""The one search kernel against a brute force over the product of the domains."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles as q
from conftest import build_affine, transposition_quandle
from quandles.cocycles import CoeffGroup
from quandles.errors import BudgetExceeded
from quandles.search import find, solutions, union


def case(obj):
    """The table and division rows of a quandle or a CoeffGroup."""
    left, right = obj._division_rows()
    return obj.table, left, right


# latin and non-latin quandles (right division None), and group tables
CASES = {
    "r3": case(build_affine("r3")),
    "q4": case(build_affine("q4")),
    "transpositions4": case(transposition_quandle(4)),
    "projection3": case(q.projection_quandle(3)),
    "Sym3": case(CoeffGroup.symmetric(3)),
    "Z4": case(CoeffGroup.abelian((4,))),
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


def run(table, left, right, relations, values, domains, distinct, budget):
    return list(solutions(table, relations, values, left=left, right=right,
                          domains=domains, distinct=distinct, budget=budget, what="test"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_solutions_match_brute_force(name, data):
    table, left, right = CASES[name]
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
            return run(table, left, right, relations, values, domains, distinct,
                       budget) == expected
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
            run(table, left, right, relations, values, domains, distinct, high - 1)
    # the default domain is every row of the table
    full = [range(size)] * nvars
    assert list(solutions(table, relations, values, left=left, right=right, distinct=distinct,
                          budget=10**6, what="test")) == brute_force(table, relations, values,
                                                                     full, distinct)


def test_union_find_merges_under_least_root():
    parent = list(range(6))
    assert union(parent, 4, 2) and union(parent, 2, 5) and not union(parent, 5, 4)
    assert [find(parent, x) for x in range(6)] == [0, 1, 2, 3, 2, 2]
