"""Shared corpus of desk-scale quandles and coefficient groups."""

import math

import pytest

import quandles as q

# connected affine quandles of order <= 16: (name, moduli, automorphism matrix)
AFFINE_CORPUS_DEFS = [
    ("r3", (3,), [[2]]),
    ("q4", (2, 2), [[1, 1], [1, 0]]),
    ("z5_l2", (5,), [[2]]),
    ("z5_l3", (5,), [[3]]),
    ("z5_l4", (5,), [[4]]),
    ("z7_l2", (7,), [[2]]),
    ("z7_l3", (7,), [[3]]),
    ("z7_l4", (7,), [[4]]),
    ("z7_l5", (7,), [[5]]),
    ("z7_l6", (7,), [[6]]),
    ("z2cubed_a", (2, 2, 2), [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
    ("z2cubed_b", (2, 2, 2), [[0, 0, 1], [1, 0, 0], [0, 1, 1]]),
    ("z9_l2", (9,), [[2]]),
    ("z9_l5", (9,), [[5]]),
    ("z9_l8", (9,), [[8]]),
    ("z3sq_8cycle", (3, 3), [[0, 1], [1, 2]]),
    ("z3sq_neg", (3, 3), [[2, 0], [0, 2]]),
    ("z11_l2", (11,), [[2]]),
    ("z11_l10", (11,), [[10]]),
    ("z13_l2", (13,), [[2]]),
    ("z13_l5", (13,), [[5]]),
    ("z15_l2", (15,), [[2]]),
    ("z4sq", (4, 4), [[0, 3], [1, 3]]),
    ("z2fourth", (2, 2, 2, 2), [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]),
]

DOUBLY_TRANSITIVE_NAMES = {
    "r3",
    "q4",
    "z5_l2",
    "z5_l3",
    "z7_l3",
    "z7_l5",
    "z11_l2",
    "z13_l2",
    "z2cubed_a",
    "z2cubed_b",
    "z3sq_8cycle",
    "z2fourth",
}


def enumerate_subgroup(group, gens):
    """Breadth-first closure of ``gens``: the oracle for the echelon lattice."""
    elements = {group.zero}
    frontier = [group.zero]
    while frontier:
        new = []
        for x in frontier:
            for h in gens:
                y = group.add(x, h)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return elements


def endomorphism(group, entries):
    """The endomorphism of ``group`` with entry (i, j) = entries[i*k + j] times
    d_i / gcd(d_i, d_j), which makes every choice of entries well defined."""
    d, k = group.moduli, group.rank
    matrix = [[entries[i * k + j] * (d[i] // math.gcd(d[i], d[j])) for j in range(k)]
              for i in range(k)]
    return q.AbHom(group, group, matrix)


def least_coset_reps(group, subgroup_elements):
    """Map each element x to the least element of x + H, sweeping in tuple order."""
    rep = {}
    for x in group.elements():
        if x not in rep:
            for h in subgroup_elements:
                rep[group.add(x, h)] = x
    return rep


def build_affine(name):
    for entry_name, moduli, matrix in AFFINE_CORPUS_DEFS:
        if entry_name == name:
            return q.affine_quandle(q.FinAbGroup(moduli), matrix)
    raise KeyError(name)


@pytest.fixture(scope="session")
def affine_corpus():
    out = []
    for name, moduli, matrix in AFFINE_CORPUS_DEFS:
        quandle = q.affine_quandle(q.FinAbGroup(moduli), matrix)
        assert quandle.is_connected(), name
        assert quandle.is_latin, name
        out.append((name, quandle))
    return out


@pytest.fixture(scope="session")
def small_affine_corpus(affine_corpus):
    return [(name, quandle) for name, quandle in affine_corpus if quandle.size <= 8]


@pytest.fixture(scope="session")
def doubly_transitive_corpus(affine_corpus):
    out = [
        (name, quandle)
        for name, quandle in affine_corpus
        if name in DOUBLY_TRANSITIVE_NAMES
    ]
    for name, quandle in out:
        assert quandle.is_doubly_transitive(), name
    return out


@pytest.fixture(scope="session")
def r3():
    return build_affine("r3")


@pytest.fixture(scope="session")
def q4():
    return build_affine("q4")


@pytest.fixture(scope="session")
def small_coeffs():
    """Coefficient groups of order <= 6 (plus names for reporting)."""
    return [
        ("Z2", q.CoeffGroup.abelian((2,))),
        ("Z3", q.CoeffGroup.abelian((3,))),
        ("Z4", q.CoeffGroup.abelian((4,))),
        ("Z2xZ2", q.CoeffGroup.abelian((2, 2))),
        ("Z6", q.CoeffGroup.abelian((6,))),
        ("Sym2", q.CoeffGroup.symmetric(2)),
        ("Sym3", q.CoeffGroup.symmetric(3)),
    ]


def beta_a_table(q4_quandle, coeff, a):
    """The order-4 quandle's normalized cocycle with off-diagonal value ``a``:
    identity when either argument is 0 or the arguments agree, ``a`` otherwise."""
    e = coeff.identity
    n = q4_quandle.size
    return [
        [e if x == y or x == 0 or y == 0 else a for y in range(n)] for x in range(n)
    ]
