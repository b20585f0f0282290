"""Finite abelian groups as explicit products of cyclic groups.

Elements are integer tuples, one coordinate per cyclic factor; homomorphisms
are integer matrices acting on column vectors. Groups are stored exactly in
the moduli form they were supplied in (no silent normalization to invariant
factors); :func:`quotient_invariants` is the one canonicalizing operation,
and it goes through an integer Smith normal form.
Subgroups are never enumerated: each is an echelon basis of its preimage
lattice in Z^k (Cohen, GTM 138, section 2.4), which gives its order,
membership and least coset representatives in time polynomial in the rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product


@dataclass(frozen=True)
class FinAbGroup:
    """Direct product of cyclic groups Z_d1 x ... x Z_dk.

    Moduli of 1 are allowed (trivial coordinates); they arise in tensor
    squares, where keeping them preserves the pair indexing.

    >>> g = FinAbGroup((2, 4))
    >>> g.order
    8
    >>> g.add((1, 3), (1, 2))
    (0, 1)
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        moduli = tuple(self.moduli)
        # bool is an int subclass, but true and false are no moduli
        if not all(type(d) is int and d >= 1 for d in moduli):
            raise ValueError(f"moduli must be integers >= 1: {moduli!r}")
        object.__setattr__(self, "moduli", moduli)

    @classmethod
    def cyclic(cls, m):
        return cls(()) if m == 1 else cls((m,))

    @classmethod
    def trivial(cls):
        return cls(())

    @property
    def rank(self):
        return len(self.moduli)

    @property
    def order(self):
        return math.prod(self.moduli)

    @property
    def zero(self):
        return (0,) * self.rank

    @cached_property
    def _elements(self):
        return tuple(product(*(range(d) for d in self.moduli)))

    def elements(self):
        """All elements in row-major (mixed radix) order."""
        return self._elements

    def check(self, x):
        x = tuple(x)
        if len(x) != self.rank or any(not 0 <= a < d for a, d in zip(x, self.moduli)):
            raise ValueError(f"{x!r} is not an element of {self.descriptor()}")
        return x

    def basis(self):
        """The standard generators e_1, ..., e_k (skipping trivial coordinates)."""
        out = []
        for i in range(self.rank):
            e = [0] * self.rank
            if self.moduli[i] > 1:
                e[i] = 1
            out.append(tuple(e))
        return out

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.moduli))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.moduli))

    def sub(self, x, y):
        return tuple((a - b) % d for a, b, d in zip(x, y, self.moduli))

    def smul(self, n, x):
        return tuple((n * a) % d for a, d in zip(x, self.moduli))

    def order_of(self, x):
        """Least n > 0 with n*x = 0."""
        self.check(x)
        return math.lcm(*(d // math.gcd(d, a) for a, d in zip(x, self.moduli))) if x else 1

    def index_of(self, x):
        idx = 0
        for a, d in zip(x, self.moduli):
            idx = idx * d + a
        return idx

    def cayley_table(self):
        """The addition table over element indices, as a tuple of rows.

        Built in mixed radix, one cyclic factor at a time from the last: for
        Z_d x H with |H| = m, element (x, h) has index x*m + h, and its row
        is the row of (0, h) rotated left by x*m.
        """
        table = ((0,),)
        for d in reversed(self.moduli):
            m = len(table)
            ids = tuple(range(d * m))  # rows share these ints: one pointer per entry
            blocks = [ids[y * m:(y + 1) * m].__getitem__ for y in range(d)]
            # the row of (0, h): row h of H carried into each column block
            firsts = [tuple(chain.from_iterable(map(b, row) for b in blocks)) for row in table]
            table = tuple(r[x * m:] + r[:x * m] for x in range(d) for r in firsts)
        return table

    def descriptor(self):
        """Serialization like ``Z 2 x Z 4``; the trivial group prints as ``Z 1``."""
        if not self.moduli:
            return "Z 1"
        return " x ".join(f"Z {d}" for d in self.moduli)

    @classmethod
    def from_descriptor(cls, text):
        """Parse ``Z 2 x Z 4`` (also the compact form ``Z2xZ4``)."""
        moduli = []
        for part in text.split("x"):
            part = part.strip()
            if not part.upper().startswith("Z"):
                raise ValueError(f"cannot parse group descriptor: {text!r}")
            try:
                d = int(part[1:].strip())
            except ValueError:
                raise ValueError(f"cannot parse group descriptor: {text!r}") from None
            if d < 1:
                raise ValueError(f"modulus must be >= 1 in {text!r}")
            if d > 1:
                moduli.append(d)
        return cls(tuple(moduli))


class AbHom:
    """Homomorphism between finite abelian groups, as an integer matrix.

    The matrix has one row per target coordinate and one column per source
    coordinate; the image of the j-th source generator is the j-th column.
    Ill-defined matrices (where some column's order does not divide the
    corresponding source modulus) are rejected at construction time.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if len(matrix) != target.rank or any(len(row) != source.rank for row in matrix):
            raise ValueError(
                f"matrix must be {target.rank}x{source.rank} for "
                f"{source.descriptor()} -> {target.descriptor()}"
            )
        if not all(type(v) is int for row in matrix for v in row):
            raise ValueError(f"matrix entries must be integers: {matrix!r}")
        self.source = source
        self.target = target
        self.matrix = tuple(
            tuple(v % d for v in row) for row, d in zip(matrix, target.moduli)
        )
        for j, d in enumerate(source.moduli):
            column = tuple(self.matrix[i][j] for i in range(target.rank))
            column_order = target.order_of(column)
            if d % column_order != 0:
                raise ValueError(
                    f"column {j} has order {column_order}, "
                    f"not a divisor of the source modulus {d}"
                )

    @classmethod
    def identity(cls, group):
        n = group.rank
        return cls(group, group, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def scaling(cls, group, n):
        """Multiplication by n, the map usually written lambda_n."""
        k = group.rank
        return cls(group, group, [[n if i == j else 0 for j in range(k)] for i in range(k)])

    def __call__(self, x):
        x = self.source.check(x)
        return tuple(
            sum(row[j] * x[j] for j in range(self.source.rank)) % d
            for row, d in zip(self.matrix, self.target.moduli)
        )

    def _require_endo(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("homomorphisms must share source and target")

    def __add__(self, other):
        self._require_endo(other)
        return AbHom(
            self.source,
            self.target,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)],
        )

    def __sub__(self, other):
        self._require_endo(other)
        return AbHom(
            self.source,
            self.target,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)],
        )

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        rows = []
        for i in range(self.target.rank):
            rows.append(
                [
                    sum(self.matrix[i][k] * other.matrix[k][j] for k in range(self.source.rank))
                    for j in range(other.source.rank)
                ]
            )
        return AbHom(other.source, self.target, rows)

    def is_automorphism(self):
        """True iff source == target and the images of the generators span it.

        A surjective endomorphism of a finite group is bijective.
        """
        if self.source != self.target:
            return False
        return subgroup_generated(self.target, zip(*self.matrix)).order == self.target.order

    def pow(self, n):
        """n-fold composition, for n >= 0."""
        if self.source != self.target:
            raise ValueError("powers need an endomorphism")
        if n < 0:
            raise ValueError(f"powers need an exponent >= 0, got {n}")
        result = AbHom.identity(self.source)
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, AbHom)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"AbHom({self.source.descriptor()} -> {self.target.descriptor()}, {self.matrix})"


@dataclass(frozen=True)
class TensorSquare:
    """The tensor square of a finite abelian group.

    For base moduli (d_1, ..., d_k) the tensor square has one coordinate per
    ordered pair (i, j), of modulus gcd(d_i, d_j), indexed row-major.
    """

    base: FinAbGroup
    group: FinAbGroup

    def pure_tensor(self, x, y):
        """The element x (x) y, expanded biadditively over coordinates; pair
        (i, j) is coordinate i*k + j."""
        x = self.base.check(x)
        y = self.base.check(y)
        return tuple(a * b % d for (a, b), d in zip(product(x, y), self.group.moduli))


def tensor_square(g):
    k = g.rank
    moduli = tuple(math.gcd(g.moduli[i], g.moduli[j]) for i in range(k) for j in range(k))
    return TensorSquare(g, FinAbGroup(moduli))


def twisted_tensor_relators(g, alpha):
    """Generators x(x)y - y(x)alpha(x) of the twisting subgroup, on basis pairs.

    Biadditivity of (x, y) -> x(x)y - y(x)alpha(x) means the k^2 basis
    instances generate the full subgroup. They are defined for every
    endomorphism alpha of g; :func:`quandles.pi1.pi1_presentation` proves the rest.
    """
    if alpha.source != g or alpha.target != g:
        raise ValueError("alpha must be an endomorphism of the given group")
    square = tensor_square(g)
    basis = g.basis()
    relators = []
    for ei in basis:
        for ej in basis:
            left = square.pure_tensor(ei, ej)
            right = square.pure_tensor(ej, alpha(ei))
            relators.append(square.group.sub(left, right))
    return relators


@dataclass(frozen=True)
class SubgroupData:
    """The subgroup of ``ambient`` generated by ``generators``, held as an
    echelon basis of the lattice <generators> + sum d_i Z e_i: row i is zero
    before column i and its pivot ``basis[i][i]`` divides d_i."""

    ambient: FinAbGroup
    generators: tuple[tuple[int, ...], ...]
    order: int
    basis: tuple[tuple[int, ...], ...]

    def coset_rep(self, x):
        """The least element of x + H in tuple order: once the earlier coordinates
        are fixed, coordinate i is free exactly modulo pivot i."""
        x = list(self.ambient.check(x))
        for i, row in enumerate(self.basis):
            q = x[i] // row[i]
            if q:
                x = [(a - q * b) % d for a, b, d in zip(x, row, self.ambient.moduli)]
        return tuple(x)

    def __contains__(self, x):
        return not any(self.coset_rep(x))


def subgroup_generated(g, gens):
    """The subgroup generated by ``gens``: each generator is folded into the
    basis d_i e_i column by column by Euclid's algorithm on rows, with entries
    reduced mod the moduli so that they never grow."""
    gens = tuple(g.check(x) for x in gens)
    basis = [[d * (i == j) for j in range(g.rank)] for i, d in enumerate(g.moduli)]
    for v in gens:
        for i in range(g.rank):
            row = basis[i]
            while v[i]:
                q = row[i] // v[i]
                tail = [(a - q * b) % d for a, b, d in zip(row[i:], v[i:], g.moduli[i:])]
                row, v = v, [0] * i + tail
            basis[i] = row
    order = g.order // math.prod(row[i] for i, row in enumerate(basis))
    return SubgroupData(g, gens, order, tuple(map(tuple, basis)))


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form of an integer matrix (list of rows).

    Returns nonnegative d_1, ..., d_min(rows, cols) with d_i | d_{i+1} among
    the nonzero entries. Pivoting always picks the smallest-absolute-value
    nonzero entry of the working submatrix, scanning row-major, so the
    intermediate states are reproducible. Entries must be ints: a float
    would be truncated and a bool read as 0 or 1.
    """
    a = [list(row) for row in matrix]
    if not all(type(v) is int for row in a for v in row):
        raise ValueError("matrix entries must be integers")
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if any(len(r) != ncols for r in a):
        raise ValueError("ragged matrix")
    size = min(nrows, ncols)

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:  # no entry is smaller: this is the first minimum
                        return best
        return best

    t = 0
    while t < size:
        pivot = find_pivot(t)
        if pivot is None:
            break
        _, pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            # clear the pivot column, then the pivot row
            for i in range(nrows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [v - q * w for v, w in zip(a[i], a[t])]
            for j in range(ncols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
            dirty = [
                (abs(a[i][t]), i, t) for i in range(t + 1, nrows) if a[i][t]
            ] + [(abs(a[t][j]), t, j) for j in range(t + 1, ncols) if a[t][j]]
            if dirty:
                _, pi, pj = min(dirty)
                if pi != t:
                    a[t], a[pi] = a[pi], a[t]
                if pj != t:
                    for row in a:
                        row[t], row[pj] = row[pj], row[t]
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [v + w for v, w in zip(a[t], a[offender])]
        t += 1
    return [abs(a[i][i]) for i in range(size)]


def quotient_invariants(g, subgroup):
    """Invariant factors of g / subgroup: the Smith normal form of the
    subgroup's echelon basis, whose rows span its preimage lattice."""
    if subgroup.ambient != g:
        raise ValueError("subgroup does not live in the given group")
    return tuple(d for d in smith_normal_form(subgroup.basis) if d > 1)
