"""Shared corpus of desk-scale quandles and coefficient groups."""

import math
import random
from dataclasses import dataclass
from itertools import permutations, product

import pytest
from hypothesis import strategies as st

import quandles as q
from quandles import search
from quandles.core import _is_index_list, _square_rows
from quandles.errors import (
    BudgetExceeded,
    NotConnected,
    NotHomomorphism,
    NotIdempotent,
    NotLeftDistributive,
    NotLeftQuasigroup,
    NotSurjective,
)

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


def companion(coeffs):
    """Companion matrix of x^k - c_{k-1} x^{k-1} - ... - c_0, acting on columns."""
    k = len(coeffs)
    return [[coeffs[i] if j == k - 1 else int(i == j + 1) for j in range(k)] for i in range(k)]


# Aff(F_q, omega) with omega primitive: q -> (p, coefficients of omega's
# minimal polynomial for ``companion``)
PRIMITIVE_FIELDS = {
    25: (5, [3, 1]),  # x^2 - x - 3 over F_5
    27: (3, [2, 0, 1]),  # x^3 - x^2 - 2 over F_3
    32: (2, [1, 0, 1, 0, 0]),  # x^5 + x^2 + 1 over F_2
    49: (7, [2, 2]),  # x^2 - 2x - 2 over F_7
    81: (3, [1, 2, 0, 0]),  # x^4 + x + 2 over F_3
}


def primitive_affine(order):
    """Aff(F_q, omega), the doubly transitive quandle of order q."""
    p, coeffs = PRIMITIVE_FIELDS[order]
    group = q.FinAbGroup((p,) * len(coeffs))
    return q.affine_quandle(group, companion(coeffs))


def galkin_quandle(m, c):
    """The Galkin quandle G(Z_m, c) on Z_3 x Z_m (Clark, Elhamdadi, Hou, Saito
    and Yeatman, Pacific J. Math. 264, 2013), latin and not affine for m = 5
    and 7: (x, a)*(y, b) = (2x - y, -a + mu(x-y) b + tau(x-y)) with
    mu = (2, -1, -1) and tau = (0, 0, c). It is right-handed, so row p of the
    table is q -> q*p; the point (x, a) is x*m + a."""
    mu, tau = (2, -1, -1), (0, 0, c)

    def star(p, r):
        (x, a), (y, b) = divmod(p, m), divmod(r, m)
        d = (x - y) % 3
        return (2 * x - y) % 3 * m + (-a + mu[d] * b + tau[d]) % m

    return q.from_table([[star(p, r) for p in range(3 * m)] for r in range(3 * m)])


def relabel(quandle, seed):
    """The quandle with its points renamed by a seeded shuffle."""
    n = quandle.size
    name = list(range(n))
    random.Random(seed).shuffle(name)
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[name[x]][name[y]] = name[quandle.op(x, y)]
    return q.Quandle(table)


def transposition_quandle(k):
    """The conjugation quandle on the k(k-1)/2 transpositions of Sym(k),
    in lexicographic order of their pairs; its LMlt is Sym(k)."""
    return q.conjugation_quandle(
        q.Perm.from_cycles(k, [(i, j)]) for i in range(k) for j in range(i + 1, k)
    )


def automorphism_order(alpha):
    """The least k >= 1 with alpha^k = 1."""
    identity = q.AbHom.identity(alpha.source)
    power, order = alpha, 1
    while power != identity:
        power, order = power.compose(alpha), order + 1
    return order


def reference_inverse(alpha):
    """The inverse automorphism from a preimage dict over the whole group."""
    group = alpha.source
    preimage = {alpha(x): x for x in group.elements()}
    cols = [preimage[e] for e in group.basis()]
    return q.AbHom(group, group, [[col[i] for col in cols] for i in range(group.rank)])


def least_coset_reps(group, subgroup_elements):
    """Map each element x to the least element of x + H, sweeping in tuple order."""
    rep = {}
    for x in group.elements():
        if x not in rep:
            for h in subgroup_elements:
                rep[group.add(x, h)] = x
    return rep


def refuse_table(group):
    """Stands in for ``FinAbGroup.cayley_table``, which every affine quandle
    table is built from, in tests that must build none."""
    raise AssertionError(f"the addition table of {group.descriptor()} was built")


def refuse_closure(generators, cap=None):
    """Stands in for ``perms.closure``, which lists every element of a
    permutation group, in tests that must list none."""
    raise AssertionError(f"{len(generators)} generators were closed")


def reference_division_rows(table):
    """Both divisions by brute force: left[m][t] = table[m].index(t) and, if
    every column is a permutation, right[b][t] = column b's index of t."""
    n = len(table)
    left = tuple(tuple(row.index(t) for t in range(n)) for row in table)
    columns = [tuple(row[b] for row in table) for b in range(n)]
    if any(sorted(column) != list(range(n)) for column in columns):
        return left, None
    return left, tuple(tuple(column.index(t) for t in range(n)) for column in columns)


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


# ------------------------------------------------------------------------
# Naive reference implementations of the library's fast paths: they index
# the tables afresh in their innermost loops, and the instance build walks
# all n^3 triples. The library must return the same value, or raise the same
# exception, on every input.


def reference_normalized_cocycles(quandle, coeff, u=0):
    """normalized_cocycles with the cocycle instances collected over all n^3
    triples through a pair-keyed ``block_of`` lookup."""
    q_ = quandle
    n = q_.size
    part = q.full_partition(q_, u, "fgh")
    nblocks = len(part.blocks)

    def block_of(pair):
        return part.index[pair[0] * n + pair[1]]

    e = coeff.identity
    values = [None] * nblocks
    for i, block in enumerate(part.blocks):
        if any(x == y or x == u or y == u for (x, y) in block):
            values[i] = e

    t = q_.table
    instances = set()
    for x in range(n):
        for y in range(n):
            for z in range(n):
                instances.add(
                    (
                        block_of((t[x][y], t[x][z])),
                        block_of((x, z)),
                        block_of((x, t[y][z])),
                        block_of((y, z)),
                    )
                )
    instances = sorted(instances)

    branch_order = sorted(
        (i for i in range(nblocks) if values[i] is None),
        key=lambda i: (len(part.blocks[i]), i),
    )
    mul, inv = coeff.mul, coeff.inv
    results = []

    def propagate(trail):
        changed = True
        while changed:
            changed = False
            for a, b, c, d in instances:
                va, vb, vc, vd = values[a], values[b], values[c], values[d]
                known = (
                    (va is not None) + (vb is not None) + (vc is not None) + (vd is not None)
                )
                if known == 4:
                    if mul(va, vb) != mul(vc, vd):
                        return False
                elif known == 3:
                    if va is None:
                        if a in (b, c, d):
                            continue
                        values[a] = mul(mul(vc, vd), inv(vb))
                        trail.append(a)
                    elif vb is None:
                        if b in (a, c, d):
                            continue
                        values[b] = mul(inv(va), mul(vc, vd))
                        trail.append(b)
                    elif vc is None:
                        if c in (a, b, d):
                            continue
                        values[c] = mul(mul(va, vb), inv(vd))
                        trail.append(c)
                    else:
                        if d in (a, b, c):
                            continue
                        values[d] = mul(inv(vc), mul(va, vb))
                        trail.append(d)
                    changed = True
        return True

    def search():
        target = next((i for i in branch_order if values[i] is None), None)
        if target is None:
            table = [[values[block_of((x, y))] for y in range(n)] for x in range(n)]
            results.append(q.ConstantCocycle(q_, coeff, table))
            return
        for candidate in range(coeff.order):
            trail = [target]
            values[target] = candidate
            if propagate(trail):
                search()
            for i in trail:
                values[i] = None

    if propagate([]):
        search()
    return results


def reference_h2c(quandle, coeff, u=0):
    """The h2c representative tables: the least image of each full
    normalized table under every conjugation of the group."""
    n = quandle.size
    canonical = set()
    for beta in q.normalized_cocycles(quandle, coeff, u):
        flat = [v for row in beta.values for v in row]
        canonical.add(min(tuple(map(c.__getitem__, flat)) for c in coeff.conjugations()))
    return [tuple(flat[x * n:(x + 1) * n] for x in range(n)) for flat in sorted(canonical)]


def reference_fgh_blocks(quandle, u):
    """The orbit of each pair id under the three pair maps, orbits numbered
    by least pair, by the breadth-first orbits of their image tuples."""
    return q.orbits(q.PairMaps(quandle, u).images.values(), quandle.size ** 2)[0]


def reference_normalized_vectors(quandle, coeff, u, node_budget):
    """The orbit block and vectors of ``cocycles._normalized_vectors`` by its
    earlier instance build: one variable per orbit, pinned ones included, and
    the instances collected at every x != u with all y and z, on the orbits
    of ``reference_fgh_blocks``, then the same product union-find and search."""
    n, t = quandle.size, quandle.table
    block = reference_fgh_blocks(quandle, u)
    sizes = [block.count(i) for i in range(max(block) + 1)]
    var = [0] * len(sizes)
    for v, i in enumerate(sorted(range(len(sizes)), key=lambda i: (sizes[i], i))):
        var[i] = v
    blk = [var[i] for i in block]
    values = [-1] * len(sizes)
    for x in range(n):
        for p in (x * n + x, x * n + u, u * n + x):
            values[blk[p]] = coeff.identity
    instances = {
        (blk[t[x][y] * n + t[x][z]], blk[x * n + z], blk[x * n + t[y][z]], blk[y * n + z])
        for x in range(n) if x != u for y in range(n) for z in range(n)
    }
    products = {}
    for a, b, c, d in instances:
        products.setdefault((a, b), len(products))
        products.setdefault((c, d), len(products))
    parent = list(range(len(products)))
    for a, b, c, d in instances:
        search.union(parent, products[a, b], products[c, d])
    shared = {}
    relations = [
        (shared.setdefault(search.find(parent, i), len(values) + len(shared)), a, b)
        for (a, b), i in products.items()
    ]
    values.extend([-1] * len(shared))
    found = search.solutions(coeff, relations, values, budget=node_budget, what="cocycle")
    return block, [tuple(a[v] for v in var) for a in found]


def least_budget(fn):
    """The least node budget at which ``fn(budget)`` raises no BudgetExceeded,
    by doubling and then bisection."""
    def succeeds(budget):
        try:
            fn(budget)
        except BudgetExceeded:
            return False
        return True

    high = 1
    while not succeeds(high):
        high *= 2
    low = high // 2  # fn(low) raised, or low is 0
    while low < high:
        mid = (low + high) // 2
        if succeeds(mid):
            high = mid
        else:
            low = mid + 1
    return low


def reference_pair_partition(quandle, u, gens):
    """The orbits of the chosen pair maps (a subset of "fgh") on X x X, by a
    breadth-first search over pairs that evaluates the defining formulas

        f: (x, y) -> (x*(y/u), x*u)
        g: (x, y) -> (u*x, u*y)
        h: (x, y) -> ((y/(x\\u))*x, y)

    with the quandle's ``op``, ``right_divide`` and ``left_divide``; blocks
    are sorted and ordered by least pair."""
    op, rdiv, ldiv = quandle.op, quandle.right_divide, quandle.left_divide
    formulas = {
        "f": lambda x, y: (op(x, rdiv(y, u)), op(x, u)),
        "g": lambda x, y: (op(u, x), op(u, y)),
        "h": lambda x, y: (op(rdiv(y, ldiv(x, u)), x), y),
    }
    fns = [formulas[w] for w in gens]
    n = quandle.size
    assigned = set()
    blocks = []
    for start in product(range(n), repeat=2):
        if start in assigned:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            new = []
            for pair in frontier:
                for fn in fns:
                    image = fn(*pair)
                    if image not in seen:
                        seen.add(image)
                        new.append(image)
            frontier = new
        assigned |= seen
        blocks.append(tuple(sorted(seen)))
    return tuple(blocks)


def pair_perm(p):
    """The induced permutation of ordered pairs, indexed by x*n + y."""
    n = p.degree
    return q.Perm(p(x) * n + p(y) for x in range(n) for y in range(n))


def reference_is_doubly_transitive(generators, degree):
    """Transitivity on ordered distinct pairs, via the orbit of (0, 1) under
    the n^2-point pair permutations."""
    index, blocks = q.orbits([pair_perm(g).images for g in generators], degree * degree)
    return len(blocks[index[1]]) == degree * (degree - 1)


def reference_cocycle_witness(quandle, coeff, values):
    n = quandle.size
    for x in range(n):
        if values[x][x] != coeff.identity:
            return ("diagonal", (x,))
    t = quandle.table
    mul = coeff.mul
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = mul(values[t[x][y]][t[x][z]], values[x][z])
                right = mul(values[x][t[y][z]], values[y][z])
                if left != right:
                    return ("cocycle", (x, y, z))
    return None


def reference_weak_cocycle_check(beta):
    q_, v = beta.quandle, beta.values
    n = q_.size
    t = q_.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (v[t[x][y]][t[x][z]] == v[x][t[y][z]]) != (v[x][z] == v[y][z]):
                    return False
    return True


def pair_map_k(maps):
    """k, the inverse of the pair map h, evaluated by its formula
    k(x, y) = (u/((x*y/u)\\y), y) with the quandle's divisions."""
    quandle, u = maps.quandle, maps.u
    op, rdiv, ldiv = quandle.op, quandle.right_divide, quandle.left_divide
    return lambda pair: (rdiv(u, ldiv(rdiv(op(*pair), u), pair[1])), pair[1])


def induced_g_action(quandle, u, which):
    """The action of f or h on the g-orbits, as a block-index map.

    Each image set is asserted to be exactly one g-block.
    """
    part = q.full_partition(quandle, u, "g")
    images = q.PairMaps(quandle, u).images[which]
    index, n = part.index, quandle.size
    out = []
    for i, block in enumerate(part.blocks):
        targets = {index[images[x * n + y]] for x, y in block}
        target = targets.pop()
        # images is injective, so one target block of equal size is the whole block
        assert not targets and len(part.blocks[target]) == len(block), (
            f"{which} does not map g-orbit {i} onto a single g-orbit"
        )
        out.append(target)
    return part, tuple(out)


def f_orbit_length_by_recursion(quandle, u, x, y):
    """|O_f(x, y)| by the translation recursion: with phi = L_x L_(y/u), the
    first coordinate of f^k(x, y) is phi^(k/2)(x) for even k and
    phi^((k+1)/2)(y/u) for odd k; the length is the first k where it is x."""
    n = quandle.size
    yu = quandle.right_divide(y, u)
    phi = quandle.left_section[x] * quandle.left_section[yu]
    points = [x, yu]
    for k in range(1, n * n + 1):
        points[k % 2] = phi(points[k % 2])
        if points[k % 2] == x:
            return k
    return None


def f_orbit_length_by_power_sum(quandle, x, y):
    """|O_f(x, y)| at u = 0 on an affine quandle: with z = x - y/0, the least
    j with sum_{i=1..j} (-1)^i alpha^i(z) = 0."""
    n = quandle.size
    group, alpha = quandle.group, quandle.alpha
    elems = group.elements()
    term = group.sub(elems[x], elems[quandle.right_divide(y, 0)])
    total = group.zero
    for j in range(1, n * n + 1):
        term = alpha(term)
        total = group.add(total, term if j % 2 == 0 else group.neg(term))
        if total == group.zero:
            return j
    return None


def lift_constant(beta):
    """View a constant cocycle into Sym(S) as a dynamical cocycle."""
    coeff = beta.coeff
    n = beta.quandle.size
    m = coeff.points  # ValueError unless the coefficients are a symmetric group
    values = [
        [tuple(coeff.perm_images(beta.values[x][y]) for _ in range(m)) for y in range(n)]
        for x in range(n)
    ]
    return q.DynamicalCocycle(beta.quandle, m, values)


@dataclass(frozen=True)
class EnvelopeElement:
    """Element (k, x, a) of Z x G x (G(x)G / I) with the twisted product."""

    shift: int
    translation: tuple
    coset: tuple


def alpha_power(pres, n):
    """alpha^n for any integer n, a negative one through ``reference_inverse``."""
    alpha = pres.alpha if n >= 0 else reference_inverse(pres.alpha)
    return alpha.pow(abs(n))


def envelope_identity(pres):
    return EnvelopeElement(
        0, pres.group.zero, pres.relator_subgroup.coset_rep(pres.tensor.group.zero)
    )


def envelope_mul(pres, a, b):
    """(k, x, a)(m, y, b) = (k+m, alpha^m(x)+y, a+b+[alpha^m(x) (x) y])."""
    group = pres.group
    square = pres.tensor
    twisted = alpha_power(pres, b.shift)(a.translation)
    coset = square.group.add(
        square.group.add(a.coset, b.coset), square.pure_tensor(twisted, b.translation)
    )
    return EnvelopeElement(
        a.shift + b.shift,
        group.add(twisted, b.translation),
        pres.relator_subgroup.coset_rep(coset),
    )


def envelope_inverse(pres, a):
    group = pres.group
    square = pres.tensor
    x_inv = group.neg(alpha_power(pres, -a.shift)(a.translation))
    coset = square.group.neg(
        square.group.add(a.coset, square.pure_tensor(group.neg(x_inv), x_inv))
    )
    return EnvelopeElement(-a.shift, x_inv, pres.relator_subgroup.coset_rep(coset))


def reference_validate_table(table):
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = []
    for row in table:
        row = tuple(int(v) for v in row)
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ValueError(f"table is not a square array over 0..{n - 1}")
        rows.append(row)
    t = tuple(rows)
    for x in range(n):
        positions = {}
        for y in range(n):
            v = t[x][y]
            if v in positions:
                raise NotLeftQuasigroup(f"row {x} repeats value {v}", (x, positions[v], y))
            positions[v] = y
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[x][t[y][z]] != t[t[x][y]][t[x][z]]:
                    raise NotLeftDistributive("x(yz) != (xy)(xz)", (x, y, z))
    for x in range(n):
        if t[x][x] != x:
            raise NotIdempotent(f"{x} * {x} = {t[x][x]}", (x,))
    return t


def reference_dynamical_witness(quandle, fiber_size, values):
    n = quandle.size
    m = fiber_size
    for x in range(n):
        for y in range(n):
            for s in range(m):
                if sorted(values[x][y][s]) != list(range(m)):
                    return ("bijection", (x, y, s))
    for x in range(n):
        for s in range(m):
            if values[x][x][s][s] != s:
                return ("quandle", (x, s))
    t = quandle.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for s in range(m):
                    bxys = values[x][y][s]
                    bxzs = values[x][z][s]
                    for t_ in range(m):
                        left_outer = values[t[x][y]][t[x][z]][bxys[t_]]
                        right_outer = values[x][t[y][z]][s]
                        byzt = values[y][z][t_]
                        if any(
                            left_outer[bxzs[w]] != right_outer[byzt[w]]
                            for w in range(m)
                        ):
                            return ("cocycle", (x, y, z, s, t_))
    return None


def reference_latin_cohomologous(beta1, beta2):
    """Cohomology on a latin quandle by normalization: beta1 ~ beta2 iff one
    sigma conjugates the 0-normalized table of beta1 into that of beta2."""
    g = beta1.coeff
    d1 = q.normalize(beta1, 0).values
    d2 = q.normalize(beta2, 0).values
    return any(
        all(g.conj(sigma, a) == b for r1, r2 in zip(d1, d2) for a, b in zip(r1, r2))
        for sigma in range(g.order)
    )


def reference_validate_group_table(table):
    """The group axioms by the full scan: an identity, inverses, then
    associativity at every (a, b, c) in order."""
    t = _square_rows(table, "group table")
    n = len(t)
    identity = next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)
    if identity is None:
        raise ValueError("group table has no identity")
    for x in range(n):
        if not any(t[x][y] == identity == t[y][x] for y in range(n)):
            raise ValueError(f"element {x} has no inverse")
    for a, b, c in product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            raise ValueError(f"group table is not associative at {(a, b, c)}")
    return t, identity


def outcome(fn, *args):
    """("value", result) or ("raise", exception type, exception args)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the comparison covers every exception alike
        return ("raise", type(exc), exc.args)


def corrupt(data, rows, alphabet):
    """A copy of ``rows`` with one to three cells redrawn from ``alphabet``, or
    with two entries of one row swapped; ``data`` is hypothesis's draw source."""
    rows = [list(row) for row in rows]
    if data.draw(st.booleans(), label="swap"):
        x = data.draw(st.integers(0, len(rows) - 1), label="row")
        i, j = data.draw(
            st.lists(st.integers(0, len(rows[x]) - 1), min_size=2, max_size=2, unique=True),
            label="positions",
        )
        rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="cells")):
            x = data.draw(st.integers(0, len(rows) - 1), label="row")
            y = data.draw(st.integers(0, len(rows[x]) - 1), label="column")
            rows[x][y] = data.draw(st.sampled_from(alphabet), label="value")
    return rows


def reference_colorings(diagram, quandle, mirror_convention=False):
    """Every arc assignment in ``itertools.product`` order, kept when it meets
    each crossing's raw relation: out = over * in at a positive crossing,
    over * out = in at a negative one (swapped under ``mirror_convention``)."""
    out = []
    for colors in product(range(quandle.size), repeat=diagram.arc_count):
        ok = True
        for cr in diagram.crossings:
            over, inc, outgoing = colors[cr.over_arc], colors[cr.in_arc], colors[cr.out_arc]
            if (cr.sign > 0) != mirror_convention:
                ok = quandle.op(over, inc) == outgoing
            else:
                ok = quandle.op(over, outgoing) == inc
            if not ok:
                break
        if ok:
            out.append(colors)
    return out


def braid_closure_gauss(word, strands):
    """Signed Gauss code of the closure of a braid word (letter i > 0 is
    sigma_i, -i its inverse; the j-th letter is crossing j + 1), followed
    from position 1, or None when that component misses a crossing. At
    sigma_i the strand arriving from position i + 1 passes over."""
    tokens = []
    pos = 1
    for _ in range(strands):
        for j, g in enumerate(word):
            i = abs(g)
            if pos in (i, i + 1):
                from_right = pos == i + 1
                over = from_right == (g > 0)
                tokens.append(f"{'O' if over else 'U'}{j + 1}{'+' if g > 0 else '-'}")
                pos = i if from_right else i + 1
        if pos == 1:
            break
    if len(tokens) != 2 * len(word):
        return None
    return " ".join(tokens)


def reference_coverings_equivalent(first, second):
    """Equivalence of two coverings by backtracking over the points of the
    first total in order, each sent to an unused point of the matching
    fiber, with the operation checked on the pairs already mapped and on
    every pair once all points are mapped."""
    if first.total.size != second.total.size:
        return False
    n = first.total.size
    t1, t2 = first.total.table, second.total.table
    p1, p2 = first.projection, second.projection
    images = [None] * n
    used = [False] * n

    def consistent(a):
        for b in range(n):
            if images[b] is None:
                continue
            ab = t1[a][b]
            ba = t1[b][a]
            if images[ab] is not None and t2[images[a]][images[b]] != images[ab]:
                return False
            if images[ba] is not None and t2[images[b]][images[a]] != images[ba]:
                return False
        return True

    def search(a):
        if a == n:  # the checks above may miss a pair; check them all
            return all(t2[images[x]][images[y]] == images[t1[x][y]]
                       for x in range(n) for y in range(n))
        for b in range(n):
            if not used[b] and p2[b] == p1[a]:
                images[a] = b
                used[b] = True
                if consistent(a) and search(a + 1):
                    return True
                images[a] = None
                used[b] = False
        return False

    return search(0)


def reference_is_covering(total, base, projection, *, require_connected=False):
    """is_covering with the homomorphism checked at every pair (a, b) and the
    rows compared pairwise within each fiber."""
    projection = tuple(projection)
    if len(projection) != total.size or not _is_index_list(projection, base.size):
        raise ValueError("projection must map total points to base points")
    if set(projection) != set(range(base.size)):
        raise NotSurjective("projection misses base points")
    for a in range(total.size):
        for b in range(total.size):
            if projection[total.op(a, b)] != base.op(projection[a], projection[b]):
                raise NotHomomorphism(f"projection fails at ({a}, {b})")
    if require_connected and not total.is_connected():
        raise NotConnected("total quandle is not connected")
    rows = total.table
    for a in range(total.size):
        for b in range(a + 1, total.size):
            if projection[a] == projection[b] and rows[a] != rows[b]:
                return False
    return True


def set_partitions(n):
    """Every partition of range(n), blocks ascending and ordered by least point."""
    blocks = []

    def grow(x):
        if x == n:
            yield tuple(map(tuple, blocks))
            return
        for block in blocks:
            block.append(x)
            yield from grow(x + 1)
            block.pop()
        blocks.append([x])
        yield from grow(x + 1)
        blocks.pop()

    return grow(0)


def reference_congruences(quandle):
    """The block tuples of every congruence of a quandle of at most 8 points:
    each set partition on which the block of x*y is a function of the blocks
    of x and y."""
    n = quandle.size
    assert n <= 8, "Bell(8) = 4140 partitions at most"
    t = quandle.table
    out = set()
    for blocks in set_partitions(n):
        block = [0] * n
        for i, members in enumerate(blocks):
            for x in members:
                block[x] = i
        product = {}
        if all(product.setdefault((block[x], block[y]), block[t[x][y]]) == block[t[x][y]]
               for x in range(n) for y in range(n)):
            out.add(blocks)
    return out


def reference_are_isomorphic(q1, q2):
    """Isomorphism by a brute force over every bijection of the points."""
    if q1.size != q2.size:
        return False
    n = q1.size
    t1, t2 = q1.table, q2.table
    return any(
        all(images[t1[x][y]] == t2[images[x]][images[y]] for x in range(n) for y in range(n))
        for images in permutations(range(n))
    )


@st.composite
def off_diagonal_swap(draw, rows):
    """A copy of the square ``rows`` with two entries of one row swapped, both
    off the diagonal. Rows that were permutations stay so and the diagonal
    stays as it was, so a corrupted table or cocycle gets past those checks
    to the check on a generating set. Needs three rows or more."""
    rows = [list(row) for row in rows]
    x = draw(st.integers(0, len(rows) - 1), label="row")
    others = [c for c in range(len(rows)) if c != x]
    i, j = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True),
                label="columns")
    rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    return rows
