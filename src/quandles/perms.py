"""Permutations of {0,...,n-1} and the groups they generate.

A group's order, membership and double transitivity are read off a
stabilizer chain built by deterministic Schreier-Sims (Sims 1970; Seress,
*Permutation Group Algorithms*, 2003), so no element is listed. The full
element list, by breadth-first closure, is built only where a caller needs
every element, such as a coset quandle's Cayley table.

Orbits of any set of maps given as image arrays, be they permutation
images, quandle table rows, pair maps over pair ids or conjugation maps of
a coefficient group, come from the one breadth-first routine :func:`orbits`.
"""

from __future__ import annotations

import math
import re

from .errors import BudgetExceeded

DEFAULT_CLOSURE_CAP = 10**6

_PERM_RE = re.compile(r"^\s*(\d+)\s*:\s*\[([\d\s,]*)\]\s*$")


def _after(a, b):
    """The image tuple of a∘b (``b`` applied first)."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img] = i
    return tuple(inv)


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
        return Perm(_after(self.images, other.images))

    def inverse(self):
        return Perm(_inverse(self.images))

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
        index, blocks = orbits([self.images], self.degree)
        return set(blocks[index[point]])

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


def closure(generators, cap=DEFAULT_CLOSURE_CAP):
    """The full element set of the group generated, by breadth-first multiplication.

    Raises :class:`BudgetExceeded` once more than ``cap`` elements appear, which
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
                        raise BudgetExceeded(f"group has more than {cap} elements")
                    new.append(prod)
        frontier = new
    return frozenset(elements)


def orbits(maps, size):
    """The orbits on range(size) of the group generated by ``maps``.

    Each map is a sequence of images over range(size), a bijection, so the
    forward closure of a point is its orbit. Returns ``(index, blocks)``:
    the blocks are sorted tuples ordered by their least point, and
    ``index[p]`` is the number of the block of p.
    """
    index = [None] * size
    blocks = []
    for start in range(size):
        if index[start] is not None:
            continue
        number = len(blocks)
        index[start] = number
        block = [start]
        for p in block:
            for images in maps:
                image = images[p]
                if index[image] is None:
                    index[image] = number
                    block.append(image)
        block.sort()
        blocks.append(tuple(block))
    return tuple(index), tuple(blocks)


def permutation_table(images):
    """Sort a composition-closed set of image tuples and tabulate it.

    Returns the sorted image tuples and the Cayley table over their indices,
    with ``table[a][b]`` the index of ``a * b`` (``b`` applied first).
    """
    elems = tuple(sorted(images))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[_after(a, b)] for b in elems) for a in elems
    )
    return elems, table


class StabilizerChain:
    """A base and strong generating set, by deterministic Schreier-Sims.

    Level ``i`` holds the base point ``base[i]``, the strong generators
    ``strong[i]`` (image tuples fixing ``base[:i]``) and the transversal
    ``transversals[i]``, which maps each point p of the basic orbit of
    ``base[i]`` to a pair (u, u^-1) with u(base[i]) = p. Every Schreier
    generator of every level sifts to the identity, so the group order is
    the product of the basic orbit lengths.
    """

    __slots__ = ("identity", "base", "strong", "transversals")

    def __init__(self, generators, degree):
        self.identity = identity = tuple(range(degree))
        self.base = []
        self.strong = []
        self.transversals = []
        generators = [g for g in dict.fromkeys(generators) if g != identity]
        for g in generators:
            if all(g[b] == b for b in self.base):
                self._add_level(next(x for x in identity if g[x] != x))
        for i in range(len(self.base)):
            fixed = self.base[:i]
            self.strong[i] = [g for g in generators if all(g[b] == b for b in fixed)]
            self._extend_orbit(i)
        i = len(self.base) - 1
        while i >= 0:
            resume = self._schreier_level(i)
            i = i - 1 if resume is None else resume

    def _add_level(self, point):
        self.base.append(point)
        self.strong.append([])
        self.transversals.append({point: (self.identity, self.identity)})

    def _extend_orbit(self, i):
        """Grow the transversal of level ``i`` under its current strong generators."""
        transversal, gens = self.transversals[i], self.strong[i]
        queue = list(transversal)
        for p in queue:
            u = transversal[p][0]
            for s in gens:
                q = s[p]
                if q not in transversal:
                    v = _after(s, u)
                    transversal[q] = (v, _inverse(v))
                    queue.append(q)

    def _schreier_level(self, i):
        """Sift the Schreier generators u_{s(p)}^-1 s u_p of level ``i``.

        Returns None when all of them sift to the identity. Otherwise the
        first nontrivial residue joins the strong generators of the levels
        after ``i`` up to the one where its sift stopped, which is a new
        level if the residue fixes the whole base; that level is returned,
        and the caller resumes there.
        """
        transversal = self.transversals[i]
        for p, (u, _) in list(transversal.items()):
            for s in self.strong[i]:
                su = _after(s, u)
                target = transversal[s[p]]
                if su == target[0]:
                    continue
                residue, level = self.sift(_after(target[1], su), i + 1)
                if residue == self.identity:
                    continue
                if level == len(self.base):
                    self._add_level(next(x for x in self.identity if residue[x] != x))
                for m in range(i + 1, level + 1):
                    self.strong[m].append(residue)
                    self._extend_orbit(m)
                return level
        return None

    def sift(self, images, start=0):
        """Strip ``images`` through the levels from ``start`` on.

        Returns the residue and the level where it left its basic orbit, or
        ``len(base)`` if it passed every level; the residue is the identity
        exactly when the image tuple lies in the group.
        """
        for level in range(start, len(self.base)):
            entry = self.transversals[level].get(images[self.base[level]])
            if entry is None:
                return images, level
            images = _after(entry[1], images)
        return images, len(self.base)

    @property
    def orbit_lengths(self):
        return [len(t) for t in self.transversals]


class PermGroup:
    """A permutation group given by generators, with a stabilizer chain built
    on demand; the element list is enumerated only when asked for."""

    __slots__ = ("degree", "generators", "_elements", "_chain")

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
        self._chain = None

    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain([g.images for g in self.generators], self.degree)
        return self._chain

    def elements(self, cap=DEFAULT_CLOSURE_CAP):
        if self._elements is None:
            gens = self.generators or (Perm.identity(self.degree),)
            self._elements = closure(gens, cap)
        return self._elements

    def order(self):
        """The product of the basic orbit lengths of the stabilizer chain."""
        return math.prod(self.chain().orbit_lengths)

    def orbit(self, point):
        index, blocks = orbits([g.images for g in self.generators], self.degree)
        return frozenset(blocks[index[point]])

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def is_doubly_transitive(self):
        """Transitive, and the stabilizer of the first base point has an orbit
        of length n - 1. A chain of one level means a trivial stabilizer,
        whose orbits have length 1."""
        n = self.degree
        if n < 2:
            raise ValueError("double transitivity needs degree >= 2")
        lengths = [*self.chain().orbit_lengths, 1]
        return lengths[0] == n and lengths[1] == n - 1

    def __contains__(self, perm):
        chain = self.chain()
        return (
            isinstance(perm, Perm)
            and perm.degree == self.degree
            and chain.sift(perm.images)[0] == chain.identity
        )

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"
