"""Seeded input generators and independent oracles for the benchmark.

Everything here is stdlib-only and deliberately shares no code with the
``quandles`` package: the generators produce plain parameter lists, table
text and Gauss codes, and the oracles recompute expected answers by other
means (closed formulas, linear algebra over F_p, direct enumeration).
"""

from __future__ import annotations

import math
import re
from itertools import permutations, product

# ---------------------------------------------------------------- matrices mod p


def mat_mul(a, b, p):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_inv(a, p):
    """Inverse over F_p by Gauss-Jordan elimination; None if singular."""
    k = len(a)
    m = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] % p), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        scale = pow(m[col][col], -1, p)
        m[col] = [v * scale % p for v in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    return [row[k:] for row in m]


def mat_order(a, p):
    """Multiplicative order of an invertible matrix over F_p."""
    k = len(a)
    ident = [[int(i == j) for j in range(k)] for i in range(k)]
    cur = [row[:] for row in a]
    n = 1
    while cur != ident:
        cur = mat_mul(cur, a, p)
        n += 1
        if n > p**k:
            raise ValueError("matrix is not invertible")
    return n


def companion(coeffs):
    """Companion matrix of x^k - c_{k-1} x^{k-1} - ... - c_0, acting on columns."""
    k = len(coeffs)
    m = [[0] * k for _ in range(k)]
    for i in range(1, k):
        m[i][i - 1] = 1
    for i in range(k):
        m[i][k - 1] = coeffs[i]
    return m


def primitive_companions(p, k):
    """Every companion matrix over F_p of multiplicative order p^k - 1, by brute force."""
    out = []
    for coeffs in product(range(p), repeat=k):
        if coeffs[0] == 0:
            continue
        m = companion(list(coeffs))
        if mat_order(m, p) == p**k - 1:
            out.append(m)
    return out


def random_gl(rng, k, p):
    while True:
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        inv = mat_inv(m, p)
        if inv is not None:
            return m, inv


def relabel_alpha(rng, alpha, p):
    """P alpha P^-1 for a random P in GL_k(F_p): an isomorphic affine quandle
    whose points are relabeled by the group automorphism P."""
    mat, inv = random_gl(rng, len(alpha), p)
    return mat_mul(mat_mul(mat, alpha, p), inv, p)


# ---------------------------------------------------------------- affine tables


def affine_table(moduli, alpha):
    """x*y = (1 - alpha) x + alpha y over Z_d1 x ... x Z_dk, points in
    row-major mixed-radix order (the order FinAbGroup.elements uses)."""
    elems = list(product(*(range(d) for d in moduli)))
    index = {x: i for i, x in enumerate(elems)}
    k = len(moduli)

    def apply(x):
        return tuple(sum(alpha[i][j] * x[j] for j in range(k)) % moduli[i] for i in range(k))

    images = [apply(x) for x in elems]
    table = []
    for x, ax in zip(elems, images):
        cx = tuple((a - b) % d for a, b, d in zip(x, ax, moduli))
        table.append([index[tuple((c + v) % d for c, v, d in zip(cx, ay, moduli))] for ay in images])
    return table


def relabel_table(rng, table):
    """The same quandle with its points renamed by a random permutation."""
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return out, sigma


def table_text(table):
    return "\n".join([str(len(table))] + [" ".join(map(str, row)) for row in table]) + "\n"


def extension_table(table, cocycle_perms):
    """Total table of the extension (x, s)*(y, t) = (x*y, beta(x, y)(t)),
    with points x*m + s."""
    n = len(table)
    m = len(cocycle_perms[0][0])
    return [
        [table[x][y] * m + cocycle_perms[x][y][t] for y in range(n) for t in range(m)]
        for x in range(n)
        for _ in range(m)
    ]


# ---------------------------------------------------------------- quandle facts


def pair_orbit_sizes(table, u):
    """Sorted orbit sizes on X x X of the pair maps f, g, h and of all three.

    f(x, y) = (x*(y/u), x*u), g(x, y) = (u*x, u*y), h(x, y) = ((y/(x\\u))*x, y);
    recomputed here from the table alone (latin quandles only).
    """
    n = len(table)
    ldiv = [[0] * n for _ in range(n)]
    rdiv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ldiv[x][table[x][y]] = y
            rdiv[table[x][y]][y] = x
    maps = {
        "f": lambda x, y: (table[x][rdiv[y][u]], table[x][u]),
        "g": lambda x, y: (table[u][x], table[u][y]),
        "h": lambda x, y: (table[rdiv[y][ldiv[x][u]]][x], y),
    }
    out = {}
    for gens in ("f", "g", "h", "fgh"):
        fns = [maps[w] for w in gens]
        seen = set()
        sizes = []
        for start in product(range(n), repeat=2):
            if start in seen:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for pair in frontier:
                    for fn in fns:
                        img = fn(*pair)
                        if img not in orbit:
                            orbit.add(img)
                            nxt.append(img)
                frontier = nxt
            seen |= orbit
            sizes.append(len(orbit))
        out[gens] = sorted(sizes)
    return out


def congruences_brute(table):
    """Every congruence of a small quandle, by testing every set partition."""
    n = len(table)
    found = set()

    def partitions(i, blocks):
        if i == n:
            yield blocks
            return
        for b in range(len(blocks)):
            blocks[b].append(i)
            yield from partitions(i + 1, blocks)
            blocks[b].pop()
        blocks.append([i])
        yield from partitions(i + 1, blocks)
        blocks.pop()

    for blocks in partitions(0, []):
        block_of = [0] * n
        for b, members in enumerate(blocks):
            for x in members:
                block_of[x] = b
        if all(
            block_of[table[x][a]] == block_of[table[x][b]]
            and block_of[table[a][x]] == block_of[table[b][x]]
            for members in blocks
            for a, b in zip(members, members[1:])
            for x in range(n)
        ):
            found.add(tuple(sorted(tuple(members) for members in blocks)))
    return found


# ---------------------------------------------------------------- coefficient groups


def hom_classes(pi1, coeff):
    """|Hom(pi1, G) / conjugation| for pi1 trivial or cyclic (Eisermann:
    the number of constant cohomology classes of a connected quandle).

    ``coeff`` is ("ab", moduli) or ("sym", k).
    """
    if not pi1:
        return 1
    (m,) = pi1
    kind, data = coeff
    if kind == "ab":
        return math.prod(math.gcd(m, d) for d in data)
    # conjugacy classes of Sym(k) with g^m = 1: partitions of k into parts dividing m
    parts = [d for d in range(1, data + 1) if m % d == 0]

    def count(rest, largest):
        if rest == 0:
            return 1
        return sum(count(rest - d, d) for d in parts if d <= min(rest, largest))

    return count(data, data)


def coeff_descriptor(coeff):
    kind, data = coeff
    if kind == "sym":
        return f"Sym({data})"
    return " x ".join(f"Z {d}" for d in data)


def coeff_order(coeff):
    kind, data = coeff
    return math.factorial(data) if kind == "sym" else math.prod(data)


class Elements:
    """Element arithmetic of a coefficient group, on the label strings the
    toolkit prints: ``(a,b)`` for abelian groups, ``[images]`` for Sym(k)."""

    def __init__(self, coeff):
        self.kind, self.data = coeff

    def parse(self, label):
        return tuple(int(v) for v in label.strip("()[]").split(",") if v)

    def mul(self, a, b):
        if self.kind == "ab":
            return tuple((x + y) % d for x, y, d in zip(a, b, self.data))
        return tuple(a[i] for i in b)

    def inv(self, a):
        if self.kind == "ab":
            return tuple((-x) % d for x, d in zip(a, self.data))
        out = [0] * len(a)
        for i, img in enumerate(a):
            out[img] = i
        return tuple(out)

    def identity(self):
        return (0,) * len(self.data) if self.kind == "ab" else tuple(range(self.data))

    def class_label(self, a):
        """Label of the least element (in the toolkit's index order) conjugate to a."""
        if self.kind == "ab":
            return "(" + ",".join(map(str, a)) + ")"
        shape = cycle_type(a)
        rep = next(p for p in permutations(range(self.data)) if cycle_type(p) == shape)
        return "[" + ",".join(map(str, rep)) + "]"


def cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if not seen[start]:
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


# ---------------------------------------------------------------- knots

TWIST_BRAIDS = {
    # braid words of the twist knots (generator i > 0 is sigma_i, i < 0 its inverse)
    "4_1": ((1, -2, 1, -2), 3, 5),
    "5_2": ((1, 1, 1, 2, -1, 2), 3, 7),
    "6_1": ((1, 1, 2, -1, -3, 2, -3), 4, 9),
}


def braid_closure_gauss(word, strands, label_of):
    """Signed Gauss code of a braid closure that is a knot.

    At sigma_i the strand arriving from position i+1 passes over (sign +);
    at its inverse the strand from position i passes over (sign -).
    ``label_of[j]`` names the crossing of the j-th letter.
    """
    tokens = []
    visits = [0] * len(word)
    pos = 1
    while True:
        for j, g in enumerate(word):
            i = abs(g)
            if pos in (i, i + 1):
                from_right = pos == i + 1
                over = from_right if g > 0 else not from_right
                tokens.append(f"{'O' if over else 'U'}{label_of[j]}{'+' if g > 0 else '-'}")
                visits[j] += 1
                pos = i if from_right else i + 1
        if pos == 1:
            break
    if any(v != 2 for v in visits):
        raise ValueError("braid closure is not a knot")
    return " ".join(tokens)


_TOKEN = re.compile(r"^([OU])(\d+)([+-])$")


def gauss_structure(code):
    """(arc count, crossings, under order) of a signed Gauss code.

    Crossings are (over arc, in arc, out arc, sign), indexed by sorted label;
    arcs are numbered by the under-passages met before each passage.
    """
    if code.strip() == "unknot":
        return 1, [], []
    parsed = []
    for tok in code.split():
        kind, label, sign = _TOKEN.match(tok).groups()
        parsed.append((kind, int(label), 1 if sign == "+" else -1))
    labels = sorted({label for _, label, _ in parsed})
    index = {label: i for i, label in enumerate(labels)}
    c = len(labels)
    over, under, sign = {}, {}, {}
    under_order = []
    seen_under = 0
    for kind, label, s in parsed:
        ci = index[label]
        sign[ci] = s
        if kind == "O":
            over[ci] = seen_under % c
        else:
            under[ci] = seen_under % c
            under_order.append(ci)
            seen_under += 1
    crossings = [(over[i], under[i], (under[i] + 1) % c, sign[i]) for i in range(c)]
    return c, crossings, under_order


def nullspace_mod_p(rows, ncols, p):
    """A basis of the solution space of rows * v = 0 over F_p."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = pow(m[r][col], -1, p)
        m[r] = [v * scale % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(m, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(v)
    return basis


def affine_colorings(code, p, alpha):
    """All colorings of a knot by Aff(Z_p^k, alpha), from the kernel of the
    coloring equations over F_p, as tuples of point indices per arc.

    Positive crossings: out = (1 - alpha) over + alpha in; negative
    crossings: in = (1 - alpha) over + alpha out.
    """
    arcs, crossings, _ = gauss_structure(code)
    k = len(alpha)
    npoints = p**k
    if not crossings:
        return [(x,) for x in range(npoints)]
    rows = []
    for over, inc, out, s in crossings:
        src, dst = (inc, out) if s > 0 else (out, inc)
        for i in range(k):
            row = [0] * (arcs * k)
            row[dst * k + i] += 1
            for j in range(k):
                row[over * k + j] -= int(i == j) - alpha[i][j]
                row[src * k + j] -= alpha[i][j]
            rows.append([v % p for v in row])
    basis = nullspace_mod_p(rows, arcs * k, p)
    out = []
    for coeffs in product(range(p), repeat=len(basis)):
        v = [sum(c * b[t] for c, b in zip(coeffs, basis)) % p for t in range(arcs * k)]
        out.append(
            tuple(
                sum(v[a * k + i] * p ** (k - 1 - i) for i in range(k)) for a in range(arcs)
            )
        )
    return out


def expected_invariant(code, colorings, coeff, labels):
    """The conjugacy-class multiset of crossing-weight products, recomputed
    from the cocycle's value labels and an independent coloring list."""
    _, crossings, under_order = gauss_structure(code)
    group = Elements(coeff)
    values = [[group.parse(s) for s in row] for row in labels]
    out = []
    for coloring in colorings:
        if len(set(coloring)) <= 1:
            continue
        prod = group.identity()
        for ci in under_order:
            over, inc, _, s = crossings[ci]
            v = values[coloring[inc]][coloring[over]]
            prod = group.mul(prod, v if s > 0 else group.inv(v))
        out.append(group.class_label(prod))
    return tuple(sorted(out))
