"""Finite quandles as Cayley tables.

A quandle is a left quasigroup that is left distributive and idempotent; the
rows of its table are the left translations, which generate the left
multiplication group. The constructors here cover the standard families:
projection, conjugation, coset and affine quandles.
"""

from __future__ import annotations

import os
from itertools import permutations

from .abelian import AbHom, FinAbGroup
from .errors import (
    NotAutomorphism,
    NotClosedUnderConjugation,
    NotIdempotent,
    NotLatin,
    NotLeftDistributive,
    NotLeftQuasigroup,
    SubgroupNotFixed,
)
from .perms import DEFAULT_CLOSURE_CAP, Perm, PermGroup, orbit, permutation_table


def _validate_table(table):
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
    # left quasigroup: every row is a permutation
    for x in range(n):
        positions = {}
        for y in range(n):
            v = t[x][y]
            if v in positions:
                raise NotLeftQuasigroup(
                    f"row {x} repeats value {v}", (x, positions[v], y)
                )
            positions[v] = y
    # left distributivity
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[x][t[y][z]] != t[t[x][y]][t[x][z]]:
                    raise NotLeftDistributive(
                        "x(yz) != (xy)(xz)", (x, y, z)
                    )
    # idempotence
    for x in range(n):
        if t[x][x] != x:
            raise NotIdempotent(f"{x} * {x} = {t[x][x]}", (x,))
    return t


class Quandle:
    """A finite quandle on points 0..n-1, with its full n x n table."""

    __slots__ = ("table", "_left_section", "_left_inv", "_latin", "_col_inv")

    def __init__(self, table, *, _checked=False):
        self.table = tuple(tuple(row) for row in table) if _checked else _validate_table(table)
        self._left_section = None
        self._left_inv = None
        self._latin = None
        self._col_inv = None

    @property
    def size(self):
        return len(self.table)

    def op(self, x, y):
        return self.table[x][y]

    @property
    def left_section(self):
        """The left translations L_x, one permutation per row."""
        if self._left_section is None:
            self._left_section = tuple(Perm(row) for row in self.table)
        return self._left_section

    def left_divide(self, x, y):
        r"""x \ y, the unique z with x*z = y."""
        if self._left_inv is None:
            self._left_inv = tuple(p.inverse().images for p in self.left_section)
        return self._left_inv[x][y]

    @property
    def is_latin(self):
        """True iff all right translations are bijections (columns are permutations)."""
        if self._latin is None:
            n = self.size
            self._latin = all(
                len({self.table[x][y] for x in range(n)}) == n for y in range(n)
            )
        return self._latin

    def right_divide(self, x, y):
        """x / y, the unique z with z*y = x; defined only in latin quandles."""
        if not self.is_latin:
            raise NotLatin("right division needs a latin quandle")
        if self._col_inv is None:
            n = self.size
            cols = []
            for y_ in range(n):
                inv = [0] * n
                for z in range(n):
                    inv[self.table[z][y_]] = z
                cols.append(tuple(inv))
            self._col_inv = tuple(cols)
        return self._col_inv[y][x]

    def lmlt(self, cap=DEFAULT_CLOSURE_CAP):
        """The left multiplication group, generated by the left translations."""
        group = PermGroup(self.left_section, degree=self.size)
        group.elements(cap)
        return group

    def is_connected(self):
        """True iff the left multiplication group acts transitively."""
        return len(orbit(self.left_section, 0)) == self.size

    def is_doubly_transitive(self):
        if self.size < 2:
            return False
        return PermGroup(self.left_section, degree=self.size).is_doubly_transitive()

    def semiregular_length(self):
        """Common length of all nontrivial translation cycles; None if mixed.

        Returns 1 when no left translation moves anything (projection
        quandles), since then every length works vacuously.
        """
        lengths = set()
        for p in self.left_section:
            lengths.update(len(c) for c in p.cycles())
        if not lengths:
            return 1
        if len(lengths) == 1:
            return lengths.pop()
        return None

    def is_semiregular(self):
        return self.semiregular_length() is not None

    def restrict(self, subset):
        """The subquandle on ``subset``; raises ValueError if not closed."""
        subset = sorted(set(subset))
        index = {v: i for i, v in enumerate(subset)}
        table = []
        for x in subset:
            row = []
            for y in subset:
                v = self.table[x][y]
                if v not in index:
                    raise ValueError(f"{subset} is not closed: {x}*{y} = {v}")
                row.append(index[v])
            table.append(row)
        return Quandle(table, _checked=True)

    def __eq__(self, other):
        return isinstance(other, Quandle) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"Quandle(size={self.size})"


def from_table(table):
    """Validate a raw table and wrap it as a quandle."""
    return Quandle(table)


def projection_quandle(n):
    """The quandle with x*y = y for all x, y."""
    if n < 1:
        raise ValueError("need n >= 1")
    row = tuple(range(n))
    return Quandle([row] * n, _checked=True)


def trivial_quandle():
    return projection_quandle(1)


def conjugation_quandle(elements):
    """The quandle x*y = x y x^-1 on a list of permutations.

    The list must be closed under mutual conjugation; points are indexed in
    the order given.
    """
    elements = list(elements)
    index = {}
    for i, g in enumerate(elements):
        if g in index:
            raise ValueError(f"duplicate element at positions {index[g]} and {i}")
        index[g] = i
    table = []
    for x in elements:
        row = []
        for y in elements:
            conj = x * y * x.inverse()
            if conj not in index:
                raise NotClosedUnderConjugation(
                    f"{x!r} * {y!r} * {x!r}^-1 = {conj!r} is not in the set"
                )
            row.append(index[conj])
        table.append(row)
    return Quandle(table)


class AffineQuandle(Quandle):
    """Affine quandle over a finite abelian group: x*y = x + alpha(y - x); the
    axioms hold by construction once alpha is an automorphism."""

    __slots__ = ("group", "alpha")

    def __init__(self, group, alpha):
        _require_automorphism(group, alpha)
        elems = group.elements()
        shift = [group.index_of(x) for x in map(AbHom.identity(group) - alpha, elems)]
        twist = [group.index_of(y) for y in map(alpha, elems)]
        add = group.cayley_table()
        super().__init__([tuple(map(add[c].__getitem__, twist)) for c in shift], _checked=True)
        self.group = group
        self.alpha = alpha


def _require_automorphism(group, alpha):
    if alpha.source != group or alpha.target != group or not alpha.is_automorphism():
        raise NotAutomorphism(f"alpha is not an automorphism of {group.descriptor()}")


def affine_quandle(group, alpha):
    """Affine quandle over ``group``; ``alpha`` may be an AbHom or a matrix."""
    if not isinstance(alpha, AbHom):
        alpha = AbHom(group, group, alpha)
    return AffineQuandle(group, alpha)


def dihedral_quandle(m):
    """The affine quandle over Z_m with x*y = 2y - x."""
    group = FinAbGroup.cyclic(m)
    return affine_quandle(group, AbHom.scaling(group, -1))


def affine_is_connected(group, alpha):
    """Connectivity test for affine quandles: 1 - alpha is an automorphism."""
    if not isinstance(alpha, AbHom):
        alpha = AbHom(group, group, alpha)
    return (AbHom.identity(group) - alpha).is_automorphism()


def _validate_group_table(table):
    n = len(table)
    t = [tuple(int(v) for v in row) for row in table]
    if any(len(r) != n or any(not 0 <= v < n for v in r) for r in t):
        raise ValueError("group table is not square over 0..n-1")
    identity = None
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("group table has no identity")
    inverses = [None] * n
    for x in range(n):
        for y in range(n):
            if t[x][y] == identity and t[y][x] == identity:
                inverses[x] = y
                break
        if inverses[x] is None:
            raise ValueError(f"element {x} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise ValueError(f"group table is not associative at {(a, b, c)}")
    return tuple(t), identity, tuple(inverses)


class CosetQuandle(Quandle):
    """Coset quandle on G/H: xH * yH = x alpha(x^-1 y) H, with H <= Fix(alpha)."""

    __slots__ = ("group_table", "subgroup", "automorphism", "cosets")

    def __init__(self, group_table, subgroup, automorphism):
        t, identity, inverses = _validate_group_table(group_table)
        n = len(t)
        sub = tuple(sorted(set(int(x) for x in subgroup)))
        if identity not in sub or any(
            t[a][b] not in sub or inverses[a] not in sub for a in sub for b in sub
        ):
            raise ValueError("subgroup is not closed")
        auto = tuple(int(v) for v in automorphism)
        if sorted(auto) != list(range(n)) or any(
            auto[t[a][b]] != t[auto[a]][auto[b]] for a in range(n) for b in range(n)
        ):
            raise NotAutomorphism("map is not a group automorphism")
        for h in sub:
            if auto[h] != h:
                raise SubgroupNotFixed(f"alpha moves subgroup element {h}")
        # left cosets, ordered by least representative
        coset_of = [None] * n
        cosets = []
        for x in range(n):
            if coset_of[x] is None:
                block = tuple(sorted(t[x][h] for h in sub))
                for y in block:
                    coset_of[y] = len(cosets)
                cosets.append(block)
        m = len(cosets)
        table = [[None] * m for _ in range(m)]
        for i, bi in enumerate(cosets):
            for j, bj in enumerate(cosets):
                results = {
                    coset_of[t[x][auto[t[inverses[x]][y]]]] for x in bi for y in bj
                }
                if len(results) != 1:
                    raise ValueError(f"coset operation not well defined at {(i, j)}")
                table[i][j] = results.pop()
        super().__init__(table)
        self.group_table = t
        self.subgroup = sub
        self.automorphism = auto
        self.cosets = tuple(cosets)


def coset_quandle(group, subgroup, automorphism):
    """Coset quandle from a Cayley table, a PermGroup, or a FinAbGroup.

    For a FinAbGroup, ``subgroup`` is a list of element tuples and
    ``automorphism`` an AbHom; other inputs use element indices and an
    index-level map. Permutation groups are converted to a Cayley table
    first (elements sorted by image tuples).
    """
    if isinstance(group, FinAbGroup):
        table = group.cayley_table()
        sub = [group.index_of(group.check(x)) for x in subgroup]
        if isinstance(automorphism, AbHom):
            auto = [group.index_of(automorphism(x)) for x in group.elements()]
        else:
            auto = list(automorphism)
        return CosetQuandle(table, sub, auto)
    if isinstance(group, PermGroup):
        elems, table = permutation_table(p.images for p in group.elements())
        index = {p: i for i, p in enumerate(elems)}
        sub = [index[p.images] if isinstance(p, Perm) else int(p) for p in subgroup]
        if automorphism and isinstance(next(iter(automorphism)), Perm):
            auto = [index[p.images] for p in automorphism]
        else:
            auto = list(automorphism)
        return CosetQuandle(table, sub, auto)
    return CosetQuandle(group, subgroup, automorphism)


def are_isomorphic(q1, q2, max_size=8):
    """Brute-force isomorphism test over all bijections; usable for n <= max_size."""
    if q1.size != q2.size:
        return False
    n = q1.size
    if n > max_size:
        raise ValueError(f"isomorphism search is capped at size {max_size}")
    t1, t2 = q1.table, q2.table
    for images in permutations(range(n)):
        if all(
            images[t1[x][y]] == t2[images[x]][images[y]]
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def quandle_to_text(q):
    """Cayley-table text format: first line n, then n rows of n integers."""
    lines = [str(q.size)]
    lines.extend(" ".join(str(v) for v in row) for row in q.table)
    return "\n".join(lines) + "\n"


def quandle_from_text(text):
    tokens = text.split()
    if not tokens:
        raise ValueError("empty table file")
    try:
        n = int(tokens[0])
        values = [int(t) for t in tokens[1:]]
    except ValueError:
        raise ValueError("table file must contain integers") from None
    if n < 1 or len(values) != n * n:
        raise ValueError(f"expected {n}x{n} entries, got {len(values)}")
    table = [values[i * n : (i + 1) * n] for i in range(n)]
    return Quandle(table)


def load_quandle_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return quandle_from_text(fh.read())


def load_quandle_dir(path):
    """Validate and load every table file in a directory, keyed by file name.

    This ingests externally produced quandle libraries; it never writes them.
    """
    out = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            out[name] = load_quandle_file(full)
    return out
