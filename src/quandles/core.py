"""Finite quandles as Cayley tables.

A quandle is a left quasigroup that is left distributive and idempotent; the
rows of its table are the left translations, which generate the left
multiplication group. The constructors here cover the standard families:
projection, conjugation, coset and affine quandles.

A finite group, be it a cocycle's coefficients or a coset quandle's group,
is a :class:`CoeffGroup` Cayley table; only a table given from outside is
checked for the group axioms. Quandles and groups cache their division rows,
which the search kernel reads off the object it searches.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, permutations
from operator import itemgetter

from .abelian import AbHom, FinAbGroup
from .errors import (
    BudgetExceeded,
    NotAutomorphism,
    NotClosedUnderConjugation,
    NotIdempotent,
    NotLatin,
    NotLeftDistributive,
    NotLeftQuasigroup,
    SubgroupNotFixed,
)
from .perms import Perm, PermGroup, _after, orbits
from .search import division_rows, solutions

ISOMORPHISM_SIZE_CAP = 12
MAX_ISOMORPHISM_NODES = 10**6


def _is_index_list(values, n):
    """True iff every entry of the sequence is an int in 0..n-1; bool is an
    int subclass, but true and false are no entries. It runs at C speed:
    the entry types as a set, then the least and greatest distinct entry."""
    if set(map(type, values)) - {int}:
        return False
    distinct = set(values)
    return not distinct or (min(distinct) >= 0 and max(distinct) < n)


def _square_rows(table, what):
    """The rows of a nonempty n x n list of rows over 0..n-1, as tuples;
    the entries are checked all at once, by :func:`_is_index_list`."""
    if not isinstance(table, (list, tuple)):
        raise ValueError(f"{what} is not a list of rows")
    n = len(table)
    if n == 0:
        raise ValueError(f"empty {what}")
    if not (all(isinstance(row, (list, tuple)) and len(row) == n for row in table)
            and _is_index_list(list(chain.from_iterable(table)), n)):
        raise ValueError(f"{what} is not a square array over 0..{n - 1}")
    return tuple(map(tuple, table))


def _composers(t):
    """Per row r, the map s -> s o r on rows, in one C call; with one point,
    where itemgetter would return an entry, not a 1-tuple, it is the identity."""
    return [itemgetter(*row) for row in t] if len(t) > 1 else [tuple]


def _first_difference(left, right):
    return next(z for z, (a, b) in enumerate(zip(left, right)) if a != b)


def _generating_points(t):
    """A generating set of the table's operation, greedily: each generator is
    the least point outside the closure of the generators before it, so
    every point below it lies in that closure. On a quandle the closure is
    the subquandle generated, since each L_x is injective on a closed
    finite subset, hence bijective."""
    n = len(t)
    columns = tuple(zip(*t))
    inside, members, points = set(), [], []
    for x in range(n):
        if x in inside:
            continue
        points.append(x)
        inside.add(x)
        queue = [x]
        # members is closed; a point joins it with its products both ways
        while queue and len(inside) < n:
            a = queue.pop()
            members.append(a)
            new = set(map(t[a].__getitem__, members))
            new.update(map(columns[a].__getitem__, members))
            new -= inside
            inside |= new
            queue.extend(new)
    return points


def _distributivity_violation(t, xs):
    """The least (x, y, z) with x in ``xs`` and x*(y*z) != (x*y)*(x*z), or
    None; row by row, as L_x L_y against L_{x*y} L_x."""
    composers = _composers(t)
    for x in xs:
        tx, after_x = t[x], composers[x]
        for y, compose in enumerate(composers):
            left, right = compose(tx), after_x(t[tx[y]])
            if left != right:
                return (x, y, _first_difference(left, right))
    return None


def _validate_table(table):
    """The rows of a quandle table and its :func:`_generating_points`, or the
    :class:`AxiomError` of the least violation.

    With permutation rows, the x whose L_x is an automorphism are closed
    under the operation, as L_{x*y} = L_x L_y L_x^-1. So distributivity is
    checked at the generators only, |S| n^2 steps; the points below the
    first that fails are in the closure of those before it, so its least
    violation is the least of all."""
    t = _square_rows(table, "table")
    n = len(t)
    # left quasigroup: every row is a permutation; a row that is not one is
    # scanned for its first repeat
    for x, row in enumerate(t):
        if len(set(row)) < n:
            positions = {}
            for y, v in enumerate(row):
                if v in positions:
                    raise NotLeftQuasigroup(f"row {x} repeats value {v}", (x, positions[v], y))
                positions[v] = y
    generators = _generating_points(t)
    witness = _distributivity_violation(t, generators)
    if witness is not None:
        raise NotLeftDistributive("x(yz) != (xy)(xz)", witness)
    # idempotence
    for x in range(n):
        if t[x][x] != x:
            raise NotIdempotent(f"{x} * {x} = {t[x][x]}", (x,))
    return t, generators


class Quandle:
    """A finite quandle on points 0..n-1, with its full n x n table."""

    __slots__ = ("table", "_left_section", "_division", "_latin", "_lmlt", "_generators",
                 "_presentations")

    def __init__(self, table, *, _checked=False):
        self._clear_caches()
        if _checked:
            self.table = tuple(tuple(row) for row in table)
        else:
            self.table, self._generators = _validate_table(table)

    def _clear_caches(self):
        self._left_section = self._division = self._latin = self._lmlt = self._generators = None
        self._presentations = {}  # cocycles._orbit_presentation by base point

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

    def _division_rows(self):
        r"""Cached :func:`search.division_rows`: left[x][y] = x \ y and, on a
        latin quandle, right[y][x] = x / y (None otherwise)."""
        if self._division is None:
            self._division = division_rows(self.table)
            self._latin = self._division[1] is not None
        return self._division

    def left_divide(self, x, y):
        r"""x \ y, the unique z with x*z = y."""
        return self._division_rows()[0][x][y]

    @property
    def is_latin(self):
        """True iff all right translations are bijections (columns are permutations)."""
        if self._latin is None:
            self._division_rows()
        return self._latin

    def right_divide(self, x, y):
        """x / y, the unique z with z*y = x; defined only in latin quandles."""
        right = self._division_rows()[1]
        if right is None:
            raise NotLatin("right division needs a latin quandle")
        return right[y][x]

    def _generating_set(self):
        """Cached :func:`_generating_points` of the table."""
        if self._generators is None:
            self._generators = _generating_points(self.table)
        return self._generators

    def lmlt(self):
        """The left multiplication group, with its stabilizer chain built.

        It is generated by the translations of a quandle generating set,
        which gives the group of all n rows because L_{x*y} = L_x L_y L_x^-1.
        """
        if self._lmlt is None:
            rows = self.left_section
            group = PermGroup((rows[x] for x in self._generating_set()), degree=self.size)
            group.chain()
            self._lmlt = group
        return self._lmlt

    def is_connected(self):
        """True iff the left multiplication group acts transitively."""
        return len(orbits(self.table, self.size)[1]) == 1

    def is_doubly_transitive(self):
        """True iff LMlt acts transitively on ordered pairs of distinct points."""
        return self.size >= 2 and self.lmlt().is_doubly_transitive()

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

    def restrict(self, subset):
        """The subquandle on ``subset``; raises ValueError on points outside
        0..n-1 or a subset that is not closed."""
        subset = tuple(subset)
        if not _is_index_list(subset, self.size):
            raise ValueError(f"{subset} is not a set of points 0..{self.size - 1}")
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


def conjugation_quandle(elements):
    """The quandle x*y = x y x^-1 on a list of permutations.

    The list must be closed under mutual conjugation; points are indexed in
    the order given. Conjugation is an injective, idempotent and
    distributive operation, so a closed list gives a quandle and its table
    is not re-validated.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("empty table")
    index = {}
    for i, g in enumerate(elements):
        if g in index:
            raise ValueError(f"duplicate element at positions {index[g]} and {i}")
        index[g] = i
    table = []
    for x in elements:
        row, x_inv = [], x.inverse()
        for y in elements:
            conj = x * y * x_inv
            if conj not in index:
                raise NotClosedUnderConjugation(
                    f"{x!r} * {y!r} * {x!r}^-1 = {conj!r} is not in the set"
                )
            row.append(index[conj])
        table.append(row)
    return Quandle(table, _checked=True)


class AffineQuandle(Quandle):
    """Affine quandle over a finite abelian group: x*y = x + alpha(y - x); the
    axioms hold by construction once alpha is an automorphism.

    The table is built on its first read, so whatever needs only
    ``(group, alpha)``, such as pi1 and the size, never builds it.
    """

    __slots__ = ("group", "alpha")

    def __init__(self, group, alpha):
        _require_automorphism(group, alpha)
        self.group = group
        self.alpha = alpha
        self._clear_caches()

    @property
    def size(self):
        return self.group.order

    def __getattr__(self, name):
        # Python calls this only for a slot that is unset: the table, until
        # its first read stores it, after which reads are plain slot reads
        if name != "table":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        add = self.group.cayley_table()
        shift = _index_images(_one_minus(self.alpha), add)
        twist = _index_images(self.alpha, add)
        self.table = tuple(tuple(map(add[c].__getitem__, twist)) for c in shift)
        return self.table


def _index_images(hom, add):
    """The index of hom(x) for every element index x of an endomorphism's
    group, by linearity from the images of the basis. In mixed radix
    (a, h) in Z_d x H has index a*|H| + h and image a*hom(e) + hom(h); every
    sum is read off the addition table ``add``."""
    group = hom.source
    images = [0]  # the index of zero, the image of the trivial group
    for d, e in zip(reversed(group.moduli), reversed(group.basis())):
        step = add[group.index_of(hom(e))]
        multiples = [0]
        for _ in range(d - 1):
            multiples.append(step[multiples[-1]])
        images = [w for c in multiples for w in map(add[c].__getitem__, images)]
    return images


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


def _one_minus(alpha):
    """1 - alpha for an endomorphism alpha, built as one ``AbHom`` with
    entries delta_ij - alpha_ij."""
    matrix = [[(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(alpha.matrix)]
    return AbHom(alpha.source, alpha.source, matrix)


def affine_is_connected(group, alpha):
    """Connectivity test for affine quandles: 1 - alpha is an automorphism."""
    if not isinstance(alpha, AbHom):
        alpha = AbHom(group, group, alpha)
    elif alpha.source != group or alpha.target != group:
        raise ValueError("homomorphisms must share source and target")
    return _one_minus(alpha).is_automorphism()


def _validate_group_table(table):
    t = _square_rows(table, "group table")
    n = len(t)
    identity = next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)
    if identity is None:
        raise ValueError("group table has no identity")
    for x in range(n):
        if not any(t[x][y] == identity == t[y][x] for y in range(n)):
            raise ValueError(f"element {x} has no inverse")
    # Light's test: the b with (ab)c = a(bc) for all a, c are closed under
    # the product; the least witness orders a first, so only a failure is
    # scanned in full, under a budget
    if _associativity_violation(t, _generating_points(t)) is not None:
        witness = _associativity_violation(t, range(n), MAX_ASSOCIATIVITY_STEPS)
        raise ValueError(f"group table is not associative at {witness}")
    return t, identity


def _associativity_violation(t, middles, budget=None):
    """The least (a, b, c) with b in ``middles`` and (ab)c != a(bc), or None;
    row by row, as L_{ab} against L_a L_b. A scan that would pass ``budget``
    triples raises BudgetExceeded."""
    composers = _composers(t)
    for a, ta in enumerate(t):
        if budget is not None and (a + 1) * len(middles) * len(t) > budget:
            raise BudgetExceeded(f"associativity witness scan exceeded {budget} steps")
        for b in middles:
            left, right = t[ta[b]], composers[b](ta)
            if left != right:
                return (a, b, _first_difference(left, right))
    return None


# a group is tabulated in full: order**2 entries
MAX_COEFF_ORDER = 2048
# a Cayley table that fails Light's test is scanned for its least witness,
# order**3 steps; a full scan fits up to order 464
MAX_ASSOCIATIVITY_STEPS = 10**8

# Sym(k) by k; the order cap keeps this to k <= 6, and the groups are immutable
_SYMMETRIC = {}


def _check_order(order, what):
    if order > MAX_COEFF_ORDER:
        raise BudgetExceeded(
            f"coefficient group {what} is larger than the order cap {MAX_COEFF_ORDER}"
        )


class CoeffGroup:
    """A finite group, held as its Cayley table over 0..order-1: the
    coefficients of a cocycle, or the group of a coset quandle.

    ``table[a][b]`` is the index of ab and ``inverses[a]`` that of a^-1.
    Three public constructors build this form: symmetric groups on a finite
    set of points, finite abelian groups, and explicit Cayley tables, the
    only input that is validated; ``coset_quandle`` tabulates permutation
    groups through the one permutation-table path of ``symmetric``. Each
    refuses groups of order above ``MAX_COEFF_ORDER`` before enumerating
    anything.
    """

    __slots__ = ("table", "order", "identity", "inverses", "labels", "_descriptor",
                 "_images", "_conjugations", "_classes", "_division")

    def __init__(self, table, identity, labels, descriptor, images=None):
        self.table = table
        self.order = len(table)
        self.identity = identity
        self.inverses = tuple(row.index(identity) for row in table)
        self.labels = labels
        self._descriptor = descriptor
        self._images = images
        self._conjugations = None
        self._classes = None
        self._division = None

    @classmethod
    def symmetric(cls, points):
        """Sym(S) for S = {0, ..., points-1}, elements in sorted image order.

        Built once per number of points and shared.
        """
        if points < 1:
            raise ValueError("need at least one point")
        # k! > MAX_COEFF_ORDER for every k >= MAX_COEFF_ORDER: no huge factorial
        _check_order(math.factorial(min(points, MAX_COEFF_ORDER)), f"Sym({points})")
        group = _SYMMETRIC.get(points)
        if group is None:
            group = _SYMMETRIC[points] = cls._permutations(
                permutations(range(points)), f"Sym({points})"
            )
        return group

    @classmethod
    def _permutations(cls, images, descriptor):
        """The group of a composition-closed set of image tuples, elements in
        sorted image order, so the identity sorts first; ``table[a][b]`` is
        the index of a∘b (``b`` applied first)."""
        images = tuple(sorted(images))
        index = {p: i for i, p in enumerate(images)}
        table = tuple(tuple(index[_after(a, b)] for b in images) for a in images)
        labels = tuple("[" + ",".join(map(str, p)) + "]" for p in images)
        return cls(table, 0, labels, descriptor, images)

    @classmethod
    def abelian(cls, group):
        """A finite abelian group, elements in row-major (mixed radix) order."""
        if not isinstance(group, FinAbGroup):
            group = FinAbGroup(tuple(group))
        _check_order(group.order, group.descriptor())
        labels = tuple("(" + ",".join(map(str, x)) + ")" for x in group.elements())
        return cls(group.cayley_table(), 0, labels, group.descriptor())  # zero is index 0

    @classmethod
    def from_cayley(cls, table, labels=None):
        """An explicit, validated Cayley table; elements keep their given order."""
        if isinstance(table, (list, tuple)):  # anything else is refused by the validator
            _check_order(len(table), f"cayley({len(table)})")
        table, identity = _validate_group_table(table)
        n = len(table)
        labels = tuple(f"g{i}" for i in range(n)) if labels is None else tuple(map(str, labels))
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct, one per element")
        return cls(table, identity, labels, f"cayley({n})")

    def _perms(self):
        if self._images is None:
            raise ValueError("not a symmetric group")
        return self._images

    @property
    def points(self):
        """For permutation groups, the number of points acted on."""
        return len(self._perms()[0])

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def conj(self, s, a):
        """s a s^-1."""
        return self.table[self.table[s][a]][self.inverses[s]]

    def _division_rows(self):
        """Cached :func:`search.division_rows`: a^-1 c = left[a][c], c b^-1 = right[b][c]."""
        if self._division is None:
            self._division = division_rows(self.table)
        return self._division

    def conjugations(self):
        """The distinct maps a -> s a s^-1 as image tuples, by least s."""
        if self._conjugations is None:
            t, inv = self.table, self.inverses
            self._conjugations = tuple(
                dict.fromkeys(tuple(t[sa][inv[s]] for sa in t[s]) for s in range(self.order))
            )
        return self._conjugations

    def conjugacy_classes(self):
        """The orbits of the conjugation maps, ordered by least element."""
        if self._classes is None:
            self._classes = orbits(self.conjugations(), self.order)
        return self._classes[1]

    def class_rep(self, a):
        """Least element of the conjugacy class of ``a``."""
        # the _is_index_list rule, spelled out: this runs once per coloring
        if type(a) is not int or not 0 <= a < self.order:
            raise ValueError(f"no element {a}")
        return self.conjugacy_classes()[self._classes[0][a]][0]

    def label(self, a):
        return self.labels[a]

    def index_of_label(self, text):
        try:
            return self.labels.index(text)
        except ValueError:
            raise ValueError(f"unknown element label {text!r}") from None

    def perm_images(self, a):
        """For permutation groups, the image tuple of element ``a``."""
        return self._perms()[a]

    def perm_index(self, images):
        """For permutation groups, the element with the given image tuple."""
        perms = self._perms()
        images = tuple(images)
        i = bisect_left(perms, images)
        if i == len(perms) or perms[i] != images:
            raise ValueError(f"{images!r} is not an element of {self.descriptor()}")
        return i

    def regular_embedding(self):
        """The left regular representation into Sym(G).

        Returns the target group Sym({0..order-1}) and the index map sending
        each element a to left multiplication by a, whose images are row a.
        """
        target = CoeffGroup.symmetric(self.order)
        return target, tuple(target.perm_index(row) for row in self.table)

    def descriptor(self):
        return self._descriptor

    def _key(self):
        return (self._descriptor, self.labels, self.table)

    def __eq__(self, other):
        return isinstance(other, CoeffGroup) and self._key() == other._key()

    def __hash__(self):
        return hash((self._descriptor, self.labels))

    def __repr__(self):
        return f"CoeffGroup({self.descriptor()})"


class CosetQuandle(Quandle):
    """Coset quandle on G/H: xH * yH = x alpha(x^-1 y) H, with H <= Fix(alpha).

    ``group`` is a :class:`CoeffGroup`, whose table is a group by
    construction. Once the subgroup and automorphism are checked, the cell
    does not depend on the coset representatives and the axioms hold, so
    each cell is read off the least representatives and the table is not
    re-validated.
    """

    __slots__ = ("group", "subgroup", "automorphism", "cosets")

    def __init__(self, group, subgroup, automorphism):
        t, identity, inverses, n = group.table, group.identity, group.inverses, group.order
        sub, auto = tuple(subgroup), tuple(automorphism)
        if not _is_index_list(sub + auto, n):
            raise ValueError(f"subgroup and automorphism must list elements 0..{n - 1}")
        members = set(sub)
        sub = tuple(sorted(members))
        if identity not in members or any(
            t[a][b] not in members or inverses[a] not in members for a in sub for b in sub
        ):
            raise ValueError("subgroup is not closed")
        if sorted(auto) != list(range(n)) or any(
            auto[t[a][b]] != t[auto[a]][auto[b]] for a in range(n) for b in range(n)
        ):
            raise NotAutomorphism("map is not a group automorphism")
        for h in sub:
            if auto[h] != h:
                raise SubgroupNotFixed(f"alpha moves subgroup element {h}")
        # left cosets xH, the orbits of right multiplication by H, ordered by
        # least representative
        coset_of, cosets = orbits([[row[h] for row in t] for h in sub], n)
        reps = [c[0] for c in cosets]
        table = [[coset_of[t[x][auto[t[inverses[x]][y]]]] for y in reps] for x in reps]
        super().__init__(table, _checked=True)
        self.group = group
        self.subgroup = sub
        self.automorphism = auto
        self.cosets = tuple(cosets)


def coset_quandle(group, subgroup, automorphism):
    """Coset quandle from a Cayley table, a PermGroup, or a FinAbGroup.

    For a FinAbGroup, ``subgroup`` is a list of element tuples and
    ``automorphism`` an AbHom; other inputs use element indices and an
    index-level map. Each input becomes a :class:`CoeffGroup` by its own
    constructor, so only a Cayley table is validated; permutation groups are
    tabulated with elements sorted by image tuples. A group above
    ``MAX_COEFF_ORDER`` raises BudgetExceeded before any element is listed.
    """
    if isinstance(group, FinAbGroup):
        coeff = CoeffGroup.abelian(group)
        sub = [group.index_of(group.check(x)) for x in subgroup]
        if isinstance(automorphism, AbHom):
            if automorphism.source != group or automorphism.target != group:
                raise NotAutomorphism(f"alpha is not an endomorphism of {group.descriptor()}")
            automorphism = _index_images(automorphism, coeff.table)
        return CosetQuandle(coeff, sub, automorphism)
    if not isinstance(group, PermGroup):
        return CosetQuandle(CoeffGroup.from_cayley(group), subgroup, automorphism)
    order = group.order()
    _check_order(order, f"perm({order})")
    coeff = CoeffGroup._permutations((p.images for p in group.elements()), f"perm({order})")

    def element(p):
        if p not in group:
            raise ValueError(f"{p!r} is not an element of the group")
        return coeff.perm_index(p.images)

    sub = [element(p) if isinstance(p, Perm) else p for p in subgroup]
    # a list, so that peeking at the first image consumes no iterator
    auto = list(automorphism)
    if auto and isinstance(auto[0], Perm):
        auto = [element(p) for p in auto]
    return CosetQuandle(coeff, sub, auto)


def _isomorphic(first, second, domains):
    """Whether the shared search finds a bijection f from ``first`` onto
    ``second`` with f(x*y) = f(x)*f(y) and, where given, f(x) in domains[x].

    It is capped at ``ISOMORPHISM_SIZE_CAP`` points and
    ``MAX_ISOMORPHISM_NODES`` nodes. A node is an injective sequence of
    branch values, so inputs of at most 9 points stay within the budget.
    """
    n = first.size
    if second.size != n:
        return False
    if n > ISOMORPHISM_SIZE_CAP:
        raise BudgetExceeded(f"isomorphism search is capped at size {ISOMORPHISM_SIZE_CAP}")
    t1 = first.table
    relations = [(t1[a][b], a, b) for a in range(n) for b in range(n)]
    maps = solutions(second, relations, [-1] * n, domains=domains, distinct=True,
                     budget=MAX_ISOMORPHISM_NODES, what="isomorphism")
    return next(maps, None) is not None


def are_isomorphic(q1, q2):
    """Whether the quandles are isomorphic, by the shared search."""
    return _isomorphic(q1, q2, None)


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
