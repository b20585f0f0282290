"""Quandle extensions by constant cocycles, coverings and congruences.

An extension glues a fiber S onto each point of a base quandle X via a
constant cocycle beta into Sym(S), with (x, s)*(y, t) = (x*y, beta(x, y)(t)).
Its total is built from the permutations directly, and the canonical
projection is a covering: equal projections force equal left translations.

Congruences are worklist closures over the union-find of
:mod:`quandles.search`. Coverings are compared by cohomology when both are
extensions by constant cocycles into one group, and otherwise by the
isomorphism search of :mod:`quandles.core` with the fibers as domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cocycles import ConstantCocycle, are_cohomologous
from .core import Quandle, _is_index_list, _isomorphic
from .errors import (
    BudgetExceeded,
    InvalidCocycle,
    NotCompatible,
    NotConnected,
    NotHomomorphism,
    NotSurjective,
)
from .search import find, union

CONGRUENCE_SIZE_CAP = 12


@dataclass(frozen=True, init=False)
class Congruence:
    """A compatible partition of a quandle: blocks of a*b depend only on blocks.
    The constructor checks the blocks, unless the library passes the sorted
    blocks of a congruence it built with ``_checked=True``."""

    quandle: Quandle
    blocks: tuple

    def __init__(self, quandle, blocks, *, _checked=False):
        blocks = tuple(map(tuple, blocks))
        if not _checked:
            n = quandle.size
            if not all(_is_index_list(b, n) for b in blocks):
                raise ValueError(f"blocks must list points 0..{n - 1}")
            blocks = tuple(sorted(tuple(sorted(set(b))) for b in blocks if b))
            if sorted(x for b in blocks for x in b) != list(range(n)):
                raise ValueError("blocks do not partition the point set")
        object.__setattr__(self, "quandle", quandle)
        object.__setattr__(self, "blocks", blocks)
        witness = None if _checked else self._compatibility_witness()
        if witness is not None:
            raise NotCompatible(f"partition is not a congruence at {witness}")

    @cached_property
    def block_index(self):
        table = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                table[x] = i
        return table

    def _compatibility_witness(self):
        q = self.quandle
        idx = self.block_index
        n = q.size
        for block in self.blocks:
            a = block[0]
            for b in block[1:]:
                for x in range(n):
                    if idx[q.op(x, a)] != idx[q.op(x, b)]:
                        return (x, a, b)
                    if idx[q.op(a, x)] != idx[q.op(b, x)]:
                        return (a, b, x)
        return None

    def __len__(self):
        return len(self.blocks)


def ker_left_section(quandle):
    """The congruence identifying points with equal left translations.

    L_{z*x} = L_z L_x L_z^-1 and L_{x*z} = L_x L_z L_x^-1 depend on x only
    through L_x, so equal rows form a congruence and it is not re-checked.
    """
    groups = {}
    for x, row in enumerate(quandle.table):
        groups.setdefault(row, []).append(x)
    return Congruence(quandle, list(groups.values()), _checked=True)


def _congruence_of(quandle, parent):
    groups = {}
    for x in range(quandle.size):
        groups.setdefault(find(parent, x), []).append(x)
    return Congruence(quandle, list(groups.values()), _checked=True)


def principal_congruence(quandle, a, b):
    """The least congruence identifying a and b, by a worklist closure.

    Each merge of the classes of u and v queues the pairs (x*u, x*v) and
    (u*x, v*x). The merged pairs span every class, so once the worklist is
    empty the partition is compatible, and it is the least one: each queued
    pair is forced by a pair identified before it.
    """
    t = quandle.table
    if not _is_index_list((a, b), len(t)):
        raise ValueError(f"{a} and {b} are not points 0..{len(t) - 1}")
    parent = list(range(len(t)))
    work = [(a, b)]
    while work:
        u, v = work.pop()
        if union(parent, u, v):
            for tx, ux, vx in zip(t, t[u], t[v]):
                work.append((tx[u], tx[v]))
                work.append((ux, vx))
    return _congruence_of(quandle, parent)


def _join(c1, c2):
    parent = list(range(c1.quandle.size))
    for cong in (c1, c2):
        for block in cong.blocks:
            for x in block[1:]:
                union(parent, block[0], x)
    # the join of two congruences is the transitive closure of their union:
    # a chain of pairs, each compatible in c1 or c2, so it is compatible
    return _congruence_of(c1.quandle, parent)


def all_congruences(quandle):
    """Every congruence, the join of the principal congruences of its pairs,
    by the join closure of the principal congruences from the identity."""
    n = quandle.size
    if n > CONGRUENCE_SIZE_CAP:
        raise BudgetExceeded(f"congruence enumeration is capped at size {CONGRUENCE_SIZE_CAP}")
    principals = {}
    for a in range(n):
        for b in range(a + 1, n):
            cong = principal_congruence(quandle, a, b)
            principals.setdefault(cong.blocks, cong)
    identity = _congruence_of(quandle, list(range(n)))
    found = {identity.blocks: identity}
    frontier = [identity]
    while frontier:
        new = []
        for cong in frontier:
            for base in principals.values():
                joined = _join(cong, base)
                if joined.blocks not in found:
                    found[joined.blocks] = joined
                    new.append(joined)
        frontier = new
    return sorted(found.values(), key=lambda c: (len(c.blocks[0]), c.blocks))


@dataclass(frozen=True)
class Covering:
    """A surjective map from a total quandle onto a base, point by point."""

    total: Quandle
    base: Quandle
    projection: tuple


@dataclass(frozen=True)
class Extension:
    """The quandle on X x S built from a constant cocycle into Sym(S).

    Points are indexed (x, s) -> x * fiber_size + s.
    """

    base: Quandle
    fiber_size: int
    cocycle: ConstantCocycle
    total: Quandle
    projection: tuple

    def as_covering(self):
        return Covering(self.total, self.base, self.projection)


def extend(quandle, cocycle):
    """Build the extension quandle of a constant cocycle into Sym(S).

    The cocycle was checked when it was constructed, so it only has to live
    on ``quandle``. A cocycle makes the total a quandle with the fibers as a
    uniform congruence, so neither is re-proved.
    """
    if not isinstance(cocycle, ConstantCocycle):
        raise TypeError("cocycle must be a ConstantCocycle")
    if cocycle.quandle != quandle:
        raise InvalidCocycle("cocycle lives on a different quandle")
    coeff = cocycle.coeff
    m = coeff.points  # ValueError unless the coefficients are a symmetric group
    table = []
    for tx, bx in zip(quandle.table, cocycle.values):
        row = [xy * m + v for xy, b in zip(tx, bx) for v in coeff.perm_images(b)]
        table += [row] * m  # (x, s)*(y, t) = (x*y, beta(x, y)(t)) for every s
    return Extension(
        base=quandle,
        fiber_size=m,
        cocycle=cocycle,
        total=Quandle(table, _checked=True),
        projection=tuple(i // m for i in range(len(table))),
    )


def is_covering(total, base, projection, *, require_connected=False):
    """The covering criterion: equal projections force equal left translations.

    The projection must be a surjective homomorphism. Connectivity of the
    total quandle is only enforced on request, since the canonical coset and
    trivial-extension examples have disconnected totals.

    As in :func:`quandles.core._validate_table`, the homomorphism is checked
    at the total's greedy generating set: the a with p(a*b) = p(a)*p(b) for
    all b are closed under *, as p(a\\b) = p(a)\\p(b) for them, so the first
    generator that fails is the least a that fails.
    """
    projection = tuple(projection)
    if len(projection) != total.size or not _is_index_list(projection, base.size):
        raise ValueError("projection must map total points to base points")
    if set(projection) != set(range(base.size)):
        raise NotSurjective("projection misses base points")
    table = total.table
    for a in total._generating_set():
        ta, over = table[a], base.table[projection[a]]
        for b, ab in enumerate(ta):
            if projection[ab] != over[projection[b]]:
                raise NotHomomorphism(f"projection fails at ({a}, {b})")
    if require_connected and not total.is_connected():
        raise NotConnected("total quandle is not connected")
    rows = {}
    return all(rows.setdefault(x, row) == row for x, row in zip(projection, table))


def _as_covering(obj):
    if isinstance(obj, Extension):
        return obj.as_covering(), obj.cocycle
    if isinstance(obj, Covering):
        return obj, None
    raise TypeError("expected an Extension or Covering")


def coverings_equivalent(first, second):
    """Equivalence of two coverings of one base: an isomorphism over the base.

    Two extensions by constant cocycles over one coefficient group are
    equivalent iff the cocycles are cohomologous, decided by the gamma
    propagation of ``are_cohomologous``. Any other pair by the isomorphism
    search of the totals that sends each point into the fiber of the second
    total over its image, under that search's size cap and node budget.
    """
    cov1, beta1 = _as_covering(first)
    cov2, beta2 = _as_covering(second)
    if cov1.base != cov2.base:
        raise ValueError("coverings have different bases")
    if cov1.total.size != cov2.total.size:
        return False
    if beta1 is not None and beta2 is not None and beta1.coeff == beta2.coeff:
        return are_cohomologous(beta1, beta2)
    fibers = {}
    for b, x in enumerate(cov2.projection):
        fibers.setdefault(x, []).append(b)
    return _isomorphic(cov1.total, cov2.total, [fibers.get(x, ()) for x in cov1.projection])
