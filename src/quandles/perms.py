"""Permutations of {0,...,n-1} and the groups they generate.

Degrees stay small here (a few hundred points at most), so generated groups
are enumerated by plain breadth-first closure over a hash set instead of
stabilizer chains.
"""

from __future__ import annotations

import math
import re

from .errors import CapExceeded

DEFAULT_CLOSURE_CAP = 10**6

_PERM_RE = re.compile(r"^\s*(\d+)\s*:\s*\[([\d\s,]*)\]\s*$")


class Perm:
    """An immutable permutation, stored as the tuple of images of 0..n-1."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build a permutation from disjoint cycles, e.g. ``from_cycles(3, [(0, 1)])``."""
        images = list(range(degree))
        for cycle in cycles:
            cycle = tuple(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        """Composition ``self * other``: apply ``other`` first, then ``self``."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Perm(self.images[i] for i in other.images)

    def inverse(self):
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img] = i
        return Perm(inv)

    def is_identity(self):
        return all(i == img for i, img in enumerate(self.images))

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each rotated to start at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            point = self.images[start]
            while point != start:
                cycle.append(point)
                seen[point] = True
                point = self.images[point]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_structure(self):
        """Multiset of cycle lengths, fixed points included, sorted descending."""
        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return tuple(sorted(lengths, reverse=True))

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def orbit_of(self, point):
        """The cycle of ``point``, as a set."""
        orbit = {point}
        image = self.images[point]
        while image != point:
            orbit.add(image)
            image = self.images[image]
        return orbit

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)!r})"

    def to_str(self):
        """One-line serialization, e.g. ``3: [1,0,2]``."""
        return f"{self.degree}: [{','.join(map(str, self.images))}]"

    @classmethod
    def from_str(cls, text):
        m = _PERM_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse permutation: {text!r}")
        degree = int(m.group(1))
        body = m.group(2).strip()
        images = [int(t) for t in body.split(",")] if body else []
        if len(images) != degree:
            raise ValueError(f"declared degree {degree} but {len(images)} images")
        return cls(images)


def compose(a, b):
    """Pointwise composition a∘b (``a`` applied after ``b``)."""
    return a * b


def inverse(a):
    return a.inverse()


def closure(generators, cap=DEFAULT_CLOSURE_CAP):
    """The full element set of the group generated, by breadth-first multiplication.

    Raises :class:`CapExceeded` once more than ``cap`` elements appear, which
    certifies that the generated group is larger than ``cap``.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share a degree")
    elements = {Perm.identity(degree)}
    frontier = [g for g in generators if g not in elements]
    elements.update(frontier)
    while frontier:
        new = []
        for g in generators:
            for h in frontier:
                prod = g * h
                if prod not in elements:
                    elements.add(prod)
                    if len(elements) > cap:
                        raise CapExceeded(f"group has more than {cap} elements")
                    new.append(prod)
        frontier = new
    return frozenset(elements)


def orbit(generators, point):
    """Smallest set containing ``point`` and invariant under the generators."""
    generators = list(generators)
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def permutation_table(images):
    """Sort a composition-closed set of image tuples and tabulate it.

    Returns the sorted image tuples and the Cayley table over their indices,
    with ``table[a][b]`` the index of ``a * b`` (``b`` applied first).
    """
    elems = tuple(sorted(images))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(map(a.__getitem__, b))] for b in elems) for a in elems
    )
    return elems, table


def pair_perm(p):
    """The induced permutation of ordered pairs, indexed by x*n + y."""
    n = p.degree
    return Perm(p(x) * n + p(y) for x in range(n) for y in range(n))


class PermGroup:
    """A permutation group given by generators, enumerated on demand."""

    __slots__ = ("degree", "generators", "_elements")

    def __init__(self, generators, degree=None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise ValueError("need generators or an explicit degree")
            degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators must share a degree")
        self.degree = degree
        self.generators = generators
        self._elements = None

    def elements(self, cap=DEFAULT_CLOSURE_CAP):
        if self._elements is None:
            gens = self.generators or (Perm.identity(self.degree),)
            self._elements = closure(gens, cap)
        return self._elements

    def order(self, cap=DEFAULT_CLOSURE_CAP):
        return len(self.elements(cap))

    def orbit(self, point):
        gens = self.generators or (Perm.identity(self.degree),)
        return orbit(gens, point)

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def is_doubly_transitive(self):
        """Transitivity on ordered distinct pairs, via the orbit of (0, 1)."""
        n = self.degree
        if n < 2:
            raise ValueError("double transitivity needs degree >= 2")
        gens = [pair_perm(g) for g in self.generators] or [Perm.identity(n * n)]
        return len(orbit(gens, 1)) == n * (n - 1)

    def __contains__(self, perm):
        return perm in self.elements()

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"
