"""Constant quandle cocycles with coefficients in a finite group.

A constant cocycle on a quandle X with coefficients in G is a map
beta: X x X -> G with

    beta(x*y, x*z) beta(x, z) = beta(x, y*z) beta(y, z)      (all x, y, z)
    beta(x, x) = 1                                           (all x)

Cocycles are cohomologous when they differ by a twist
beta'(x, y) = gamma(x*y) beta(x, y) gamma(y)^-1; the classes form the second
constant cohomology set. On latin quandles every class contains normalized
representatives (beta(x, u) = 1 for a base point u): the solutions of a
presentation P(Q, u) over the orbits of three explicit bijections of X x X,
which :func:`_orbit_presentation` builds and explains. :func:`h2c`
enumerates the classes by backtracking over it.

Coefficient groups are :class:`quandles.core.CoeffGroup` Cayley tables,
the one finite-group table type, which coset quandles share.

A pair (x, y) is its id p = x*n + y throughout: :func:`pair_map` gives each
pair bijection as an image tuple over the ids, and :func:`full_partition`
gives orbits as sorted tuples of ids. The orbits of one or two of the maps,
like the components of a quandle and the conjugacy classes of a coefficient
group, come from :func:`quandles.perms.orbits`; the orbits of all three,
which the search reads, come from the cycles of the left translation by the
base point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import itemgetter

from .abelian import FinAbGroup
from .core import CoeffGroup, Quandle, _is_index_list
from .errors import InvalidCocycle, NotLatin
from .perms import Perm, orbits
from .search import find, solutions, union

DEFAULT_H2C_NODE_BUDGET = 10**6


def parse_coeff_descriptor(text):
    """Parse coefficient-group descriptors like ``Sym(3)``, ``S3`` or ``Z 2 x Z 2``."""
    if not isinstance(text, str):
        raise ValueError(f"coefficient descriptor is not a string: {text!r}")
    s = text.strip()
    low = s.lower()
    if low == "trivial":
        return CoeffGroup.abelian(FinAbGroup.trivial())
    for prefix in ("sym", "s"):
        if low.startswith(prefix):
            body = low[len(prefix):].strip().lstrip("(").rstrip(")").strip()
            if body.isdigit():
                return CoeffGroup.symmetric(int(body))
    if low.startswith("z"):
        return CoeffGroup.abelian(FinAbGroup.from_descriptor(s))
    raise ValueError(f"cannot parse coefficient descriptor {text!r}")


def cocycle_witness(quandle, coeff, values):
    """None if the table is a constant cocycle, else the smallest violation.

    Violations are ("diagonal", (x,)) for a nontrivial diagonal value and
    ("cocycle", (x, y, z)) for a failed cocycle instance, in lexicographic order.
    The instances at x say that L_(x, g) is an automorphism of the extension
    (x, g)*(y, h) = (x*y, beta(x, y) h), so, as in
    :func:`quandles.core._validate_table`, they are checked at the quandle's
    generating points only, |S| n^2 steps, and the first failure is the least.
    """
    n = quandle.size
    for x in range(n):
        if values[x][x] != coeff.identity:
            return ("diagonal", (x,))
    t = quandle.table
    mul = coeff.table
    for x in quandle._generating_set():
        tx, vx = t[x], values[x]
        for y in range(n):
            ty, vy, lr = t[y], values[y], values[tx[y]]
            for z in range(n):
                if mul[lr[tx[z]]][vx[z]] != mul[vx[ty[z]]][vy[z]]:
                    return ("cocycle", (x, y, z))
    return None


class ConstantCocycle:
    """A constant cocycle; ``values[x][y]`` is an element index of G. The
    constructor checks its values; the library's own constructions, cocycles
    by a theorem, pass ``_checked=True`` and skip every check."""

    __slots__ = ("quandle", "coeff", "values")

    def __init__(self, quandle, coeff, values, *, _checked=False):
        values = tuple(map(tuple, values))
        if not _checked:
            n = quandle.size
            if len(values) != n or any(len(r) != n for r in values):
                raise ValueError(f"values must be {n}x{n}")
            if not all(_is_index_list(row, coeff.order) for row in values):
                raise ValueError(f"values must be element indices 0..{coeff.order - 1}")
            witness = cocycle_witness(quandle, coeff, values)
            if witness is not None:
                raise InvalidCocycle(f"not a constant cocycle: {witness}", witness)
        self.quandle = quandle
        self.coeff = coeff
        self.values = values

    def is_normalized(self, u):
        """True iff beta(x, u) = 1 for every x."""
        return all(row[u] == self.coeff.identity for row in self.values)

    def is_trivial(self):
        identity_row = (self.coeff.identity,) * self.quandle.size
        return all(map(identity_row.__eq__, self.values))

    def __eq__(self, other):
        return (
            isinstance(other, ConstantCocycle)
            and self.quandle.table == other.quandle.table
            and self.coeff == other.coeff
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.quandle.table, self.coeff, self.values))

    def __repr__(self):
        return f"ConstantCocycle(size={self.quandle.size}, coeff={self.coeff.descriptor()})"


def trivial_cocycle(quandle, coeff):
    n = quandle.size
    e = coeff.identity
    return ConstantCocycle(quandle, coeff, [[e] * n for _ in range(n)], _checked=True)


def conjugate_cocycle(beta, sigma):
    """The cocycle beta^sigma(x, y) = sigma beta(x, y) sigma^-1.

    Conjugation by sigma is an automorphism of G, and the image of a
    cocycle under a group homomorphism is a cocycle, so it is not
    re-verified.
    """
    g = beta.coeff
    if not _is_index_list((sigma,), g.order):
        raise ValueError(f"no element {sigma}")
    values = [[g.conj(sigma, v) for v in row] for row in beta.values]
    return ConstantCocycle(beta.quandle, g, values, _checked=True)


def normalize(beta, u=0):
    """The u-normalized cocycle cohomologous to beta (latin quandles only):

    beta_u(x, y) = beta((x*y)/u, u)^-1 beta(x, y) beta(y/u, u),

    the twist of beta by gamma(z) = beta(z/u, u)^-1. A twist of a cocycle is
    a cocycle, and beta_u(x, u) = beta(u, u) = 1, so it is not re-verified.
    """
    q = beta.quandle
    if not q.is_latin:
        raise NotLatin("normalization needs a latin quandle")
    if not _is_index_list((u,), q.size):
        raise ValueError(f"base point {u} out of range")
    g = beta.coeff
    gamma = [g.inv(beta.values[q.right_divide(z, u)][u]) for z in range(q.size)]
    return ConstantCocycle(q, g, _twist(beta, gamma), _checked=True)


def _twist(beta, gamma):
    """gamma(x*y) beta(x, y) gamma(y)^-1 as a raw value table."""
    q, g = beta.quandle, beta.coeff
    n = q.size
    return [
        [
            g.mul(g.mul(gamma[q.op(x, y)], beta.values[x][y]), g.inv(gamma[y]))
            for y in range(n)
        ]
        for x in range(n)
    ]


def cohomologous(beta1, beta2):
    """A coboundary map gamma with beta2 = gamma(x*y) beta1(x, y) gamma(y)^-1,
    as ``{"kind": "gamma", "gamma": ...}``, or None.

    gamma is determined on each connected component by its value at one
    point: every guess is propagated along the left translations, since
    gamma(x*y) = beta2(x, y) gamma(y) beta1(x, y)^-1. This works on any
    quandle and is independent of the conjugation theorem ``h2c`` buckets by.

    Every point of a component enters the queue once, and when y leaves it
    that equation is set or checked for every x. So an accepted gamma meets
    the twist equation at every pair (x, y), and needs no second check.
    """
    if beta1.quandle.table != beta2.quandle.table:
        raise ValueError("cocycles live on different quandles")
    if beta1.coeff != beta2.coeff:
        raise ValueError("cocycles have different coefficient groups")
    q, g = beta1.quandle, beta1.coeff
    n = q.size
    t, mul, inv = q.table, g.table, g.inverses
    v1, v2 = beta1.values, beta2.values
    _, components = orbits(t, n)
    gamma = [None] * n
    for comp in components:
        rep = comp[0]
        found = False
        for guess in range(g.order):
            trial = {rep: guess}
            queue = [rep]
            ok = True
            while queue and ok:
                y = queue.pop()
                for x in range(n):
                    z = t[x][y]
                    needed = mul[mul[v2[x][y]][trial[y]]][inv[v1[x][y]]]
                    if z in trial:
                        if trial[z] != needed:
                            ok = False
                            break
                    else:
                        trial[z] = needed
                        queue.append(z)
            if ok:
                for point, value in trial.items():
                    gamma[point] = value
                found = True
                break
        if not found:
            return None
    return {"kind": "gamma", "gamma": tuple(gamma)}


def are_cohomologous(beta1, beta2):
    return cohomologous(beta1, beta2) is not None


def embed_coeffs(beta):
    """Push a cocycle over G into Sym(G) via the left regular representation.

    The embedding is a group homomorphism, so the image of a cocycle is a
    cocycle and is not re-verified.
    """
    target, mapping = beta.coeff.regular_embedding()
    values = [[mapping[v] for v in row] for row in beta.values]
    return ConstantCocycle(beta.quandle, target, values, _checked=True)


def _check_base_point(quandle, u):
    """The checks of every pair-bijection routine: u is a point, since a
    negative u would index the rows from the end, and the quandle is latin."""
    if not _is_index_list((u,), quandle.size):
        raise ValueError(f"base point {u} out of range")
    if not quandle.is_latin:
        raise NotLatin("the pair bijections need a latin quandle")


def pair_map(quandle, u, which):
    r"""One of the three cocycle-preserving bijections of X x X for a latin
    quandle, with base point u:

        f: (x, y) -> (x*(y/u), x*u)
        g: (x, y) -> (u*x, u*y)
        h: (x, y) -> ((y/(x\u))*x, y)

    as the image tuple over the pair ids p = x*n + y, built from the table
    rows and the division caches. These serve the partitions by one or two
    of the maps; the orbits of all three, which the cocycle search reads,
    come from :func:`_fgh_orbits` without any image tuple.
    """
    _check_base_point(quandle, u)
    n = quandle.size
    t, xs = quandle.table, range(n)
    left_inv, cols = quandle._division_rows()  # cols[b][a] = a/b
    if which == "f":
        over_u = cols[u]
        return tuple(t[x][over_u[y]] * n + t[x][u] for x in xs for y in xs)
    if which == "g":
        tu = t[u]
        return tuple(tu[x] * n + tu[y] for x in xs for y in xs)
    if which == "h":
        return tuple(t[cols[left_inv[x][u]][y]][x] * n + y for x in xs for y in xs)
    raise ValueError(f"unknown map {which!r}")


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a set of pair bijections on X x X.

    ``blocks`` holds each orbit as a sorted tuple of pair ids x*n + y, ordered
    by least pair, and ``index[x*n + y]`` is the number of the block of (x, y).
    For the plain g-partition the three distinguished families are labeled:
    the singleton orbit of (u, u), the orbits of the f-fixed pairs
    (x, x*u), and the orbits of the pairs (x, x\\u) multiplying to u.
    """

    blocks: tuple
    index: tuple
    uu_block: int | None = None
    f_family: frozenset | None = None
    u_family: frozenset | None = None

    def sizes(self):
        return tuple(len(b) for b in self.blocks)


def full_partition(quandle, u, gens="fgh"):
    """Partition X x X into orbits of the chosen maps, blocks sorted by least
    pair: the fgh-orbits come from :func:`_fgh_orbits`, the others from the
    images of :func:`pair_map`."""
    gens = "".join(sorted(set(gens)))
    if not gens or any(w not in "fgh" for w in gens):
        raise ValueError(f"generators must be a nonempty subset of 'fgh': {gens!r}")
    n = quandle.size
    if gens == "fgh":
        index, sizes = _fgh_orbits(quandle, u)
        blocks = [[] for _ in sizes]
        for p, i in enumerate(index):
            blocks[i].append(p)
        blocks = tuple(map(tuple, blocks))
    else:
        index, blocks = orbits([pair_map(quandle, u, w) for w in gens], n * n)
    if gens != "g":
        return OrbitPartition(blocks, index)
    t = quandle.table
    left_inv, _ = quandle._division_rows()
    others = [x for x in range(n) if x != u]
    return OrbitPartition(
        blocks,
        index,
        uu_block=index[u * n + u],
        f_family=frozenset(index[x * n + t[x][u]] for x in others),
        u_family=frozenset(index[x * n + left_inv[x][u]] for x in others),
    )


def _fgh_orbits(quandle, u):
    r"""The orbits of f, g and h on X x X, read off the cycles of L_u (row u
    of the table). Returns ``block``, the orbit of each pair id, with orbits
    numbered by least pair, and the size of each orbit.

    L_u is an automorphism that fixes u, so L_u(a/b) = L_u a / L_u b and
    L_u(x\u) = (L_u x)\u: f and h commute with g = L_u x L_u, and every
    fgh-orbit is a union of g-orbits. On the rows of a cycle C of L_u the
    g-orbits are labeled at its first point r: (r, y) and (r, y') share one
    iff y' = L_u^(k|C|) y, so on a cycle D, positions that agree mod
    gcd(|C|, |D|). The label row of L_u x is that of x composed with L_u^-1.
    Every g-orbit meets a first row, so f and h are applied there only, and
    the g-orbits of each pair and its image are merged.
    """
    _check_base_point(quandle, u)
    n = quandle.size
    t = quandle.table
    left_inv, cols = quandle._division_rows()  # cols[b][a] = a/b
    cycles = Perm(t[u]).cycles(include_fixed=True)
    # a row composed with L_u^-1; with one point, itemgetter gives an entry
    back = itemgetter(*left_inv[u]) if n > 1 else tuple
    labels, label_sizes = [None] * n, []
    for cycle in cycles:
        row = [0] * n
        for other in cycles:
            k, first = gcd(len(cycle), len(other)), len(label_sizes)
            for i, y in enumerate(other):
                row[y] = first + i % k
            label_sizes += [len(cycle) * len(other) // k] * k
        row = tuple(row)
        for x in cycle:
            labels[x] = row
            row = back(row)
    parent = list(range(len(label_sizes)))
    over_u = cols[u]
    for r, *_ in cycles:
        tr, lr, under = t[r], labels[r], cols[left_inv[r][u]]
        f_column = tr[u]  # f(r, y) = (r*(y/u), r*u)
        for y in range(n):
            union(parent, lr[y], labels[tr[over_u[y]]][f_column])
            union(parent, lr[y], labels[t[under[y]][r]][y])  # h(r, y)
    roots = [find(parent, i) for i in range(len(parent))]
    flat = list(chain.from_iterable(labels))
    number = {root: i for i, root in enumerate(dict.fromkeys(map(roots.__getitem__, flat)))}
    orbit = [number[root] for root in roots]
    sizes = [0] * len(number)
    for i, size in zip(orbit, label_sizes):
        sizes[i] += size
    return tuple(map(orbit.__getitem__, flat)), sizes


def f_orbit_length(quandle, u, x, y):
    """|O_f(x, y)|, by iterating f: (x, y) -> (x*(y/u), x*u) on the table and
    the cached division rows until it returns."""
    _check_base_point(quandle, u)
    # a pair outside X x X would never come back, or index rows from the end
    if not _is_index_list((x, y), quandle.size):
        raise ValueError(f"pair {(x, y)} out of range")
    t, over_u = quandle.table, quandle._division_rows()[1][u]  # over_u[b] = b/u
    a, b, length = t[x][over_u[y]], t[x][u], 1
    while (a, b) != (x, y):
        a, b, length = t[a][over_u[b]], t[a][u], length + 1
    return length


def normalized_cocycles(quandle, coeff, u=0, node_budget=DEFAULT_H2C_NODE_BUDGET):
    """All u-normalized constant cocycles on a latin quandle: the solutions
    in ``coeff`` of :func:`_orbit_presentation`, assigned by
    :func:`quandles.search.solutions`, smallest free orbit first, with the
    relations propagated after every assignment. With no free orbit the
    search counts its root only; ``node_budget`` bounds its nodes.
    """
    return _tables(quandle, coeff, *_normalized_vectors(quandle, coeff, u, node_budget))


def _orbit_presentation(quandle, u):
    """The presentation P(Q, u), free of any group G, whose solutions in G
    are the u-normalized cocycles into G: ``(block, var, nvars, relations)``.

    Every u-normalized cocycle is constant on the orbits of the three pair
    bijections, so the unknowns are one element per orbit: ``block[p]`` is
    the orbit of pair id p, by least pair (:func:`_fgh_orbits`), and
    ``var[i]`` the variable of orbit i. The orbits holding a pair (x, x),
    (x, u) or (u, x) are pinned to e and share variable 0; the free orbits
    follow, smallest first. A relation (w, a, b) says w = ab, for w past the
    orbits' variables, ``nvars`` in all: an instance beta(a) beta(b) =
    beta(c) beta(d) equates two products, and the products it equates,
    directly or through others, share one w.

    The instances are collected only for x in the quandle's generating set
    S other than u, with all y and z, by the argument of
    :func:`cocycle_witness`: the x at which they hold are closed under the
    operation, as L_(x*y) = L_x L_y L_x^-1, and include u, where with
    beta(u, z) pinned to e they say only that beta(u*y, u*z) = beta(y, z),
    which every orbit vector meets. So every solution meets the cocycle
    condition at all n^3 triples, and with its diagonal orbits pinned it is a
    cocycle: it is not re-verified. With no free orbit there is no relation.
    P depends only on (Q, u), so the quandle caches it per base point.
    """
    if not quandle.is_latin:
        raise NotLatin("cocycle enumeration needs a latin quandle")
    _check_base_point(quandle, u)  # before the cache, which only valid points enter
    if u in quandle._presentations:
        return quandle._presentations[u]
    n = quandle.size
    block, sizes = _fgh_orbits(quandle, u)
    pinned = {block[p] for x in range(n) for p in (x * n + x, x * n + u, u * n + x)}
    free = sorted(set(range(len(sizes))) - pinned, key=lambda i: (sizes[i], i))
    var = [0] * len(sizes)
    for v, i in enumerate(free, 1):
        var[i] = v

    instances = set()
    if free:  # then n >= 3, and itemgetter gives tuples
        t = quandle.table
        blk = list(map(var.__getitem__, block))
        rows = [blk[x * n:(x + 1) * n] for x in range(n)]
        permute = [itemgetter(*row) for row in t]
        for x in quandle._generating_set():
            if x != u:
                tx, bx, px = t[x], rows[x], permute[x]
                for y in range(n):  # the instances at (x, y, z) for every z
                    instances.update(zip(px(rows[tx[y]]), bx, permute[y](bx), rows[y]))

    products = {}
    for a, b, c, d in instances:
        products.setdefault((a, b), len(products))
        products.setdefault((c, d), len(products))
    parent = list(range(len(products)))
    for a, b, c, d in instances:
        union(parent, products[a, b], products[c, d])
    shared = {}
    relations = [
        (shared.setdefault(find(parent, i), 1 + len(free) + len(shared)), a, b)
        for (a, b), i in products.items()
    ]
    presentation = block, var, 1 + len(free) + len(shared), relations
    return quandle._presentations.setdefault(u, presentation)


def _normalized_vectors(quandle, coeff, u, node_budget):
    """:func:`normalized_cocycles` in orbit coordinates: the block of
    :func:`_orbit_presentation`, and one element per orbit for each solution."""
    block, var, nvars, relations = _orbit_presentation(quandle, u)
    values = [coeff.identity] + [-1] * (nvars - 1)
    found = solutions(coeff, relations, values, budget=node_budget, what="cocycle")
    return block, [tuple(map(a.__getitem__, var)) for a in found]


def _tables(quandle, coeff, block, vectors):
    """The cocycle of each orbit vector: cell (x, y) holds its orbit's element."""
    n = quandle.size
    rows = [block[x * n:(x + 1) * n] for x in range(n)]
    return [ConstantCocycle(quandle, coeff, [[v[b] for b in row] for row in rows], _checked=True)
            for v in vectors]


def h2c(quandle, coeff, u=0, node_budget=DEFAULT_H2C_NODE_BUDGET):
    """Representatives of the second constant cohomology classes.

    Normalized cocycles are cohomologous exactly when conjugate by a single
    group element, so a class is the set of conjugates of any member; the
    representative of each class is its lexicographically least table, a
    found cocycle's image under a group automorphism, so not re-verified.
    The solutions are orbit vectors, and only representatives become
    tables: two tables first differ at the least pair of an orbit, so they
    compare as their vectors do. The first vector met of each class is
    mapped by every conjugation, the least image is kept, and all of them
    are marked seen, so each class is canonicalized once.
    """
    block, vectors = _normalized_vectors(quandle, coeff, u, node_budget)
    conjugations = coeff.conjugations()
    seen, canonical = set(), []
    for vector in vectors:
        if vector not in seen:
            conjugates = {tuple(map(c.__getitem__, vector)) for c in conjugations}
            canonical.append(min(conjugates))
            seen |= conjugates
    return _tables(quandle, coeff, block, sorted(canonical))


def h2c_is_trivial(quandle, coeff, u=0, node_budget=DEFAULT_H2C_NODE_BUDGET):
    return len(h2c(quandle, coeff, u, node_budget)) == 1


def cocycle_to_json(beta, quandle_ref=None):
    """JSON form: quandle reference, coefficient descriptor, value labels."""
    if quandle_ref is None:
        quandle_ref = {
            "size": beta.quandle.size,
            "table": [list(r) for r in beta.quandle.table],
        }
    return {
        "quandle": quandle_ref,
        "coeff": beta.coeff.descriptor(),
        "values": [[beta.coeff.label(v) for v in row] for row in beta.values],
    }


def document_field(data, key, kind):
    """``data[key]`` of a parsed JSON document, or ValueError if ``data`` is
    not an object or lacks the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} document is not a JSON object")
    if key not in data:
        raise ValueError(f"{kind} document has no {key!r} key")
    return data[key]


def cocycle_from_json(data, quandle=None, coeff=None):
    if quandle is None:
        ref = document_field(data, "quandle", "cocycle")
        if not isinstance(ref, dict) or "table" not in ref:
            raise ValueError("cocycle document does not embed its quandle table")
        quandle = Quandle(ref["table"])
    if coeff is None:
        coeff = parse_coeff_descriptor(document_field(data, "coeff", "cocycle"))
    rows = document_field(data, "values", "cocycle")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("cocycle values are not a list of lists")
    values = [[coeff.index_of_label(s) for s in row] for row in rows]
    return ConstantCocycle(quandle, coeff, values)
