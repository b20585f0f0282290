"""Permutations of {0,...,n-1} and the groups they generate.

A permutation has one form: the tuple of its images of 0..n-1, as in a
quandle table row. :func:`_after` composes two, :func:`_inverse` inverts
one and :func:`cycles` lists its cycles; :class:`PermGroup`, :func:`closure`
and the quandle constructors check that each input is a permutation.

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

from .errors import BudgetExceeded

DEFAULT_CLOSURE_CAP = 10**6

def _after(a, b):
    """The image tuple of a∘b (``b`` applied first)."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img] = i
    return tuple(inv)


def _is_permutation(images, degree):
    """True iff the tuple ``images`` holds each int 0..degree-1 once; a bool
    is no entry."""
    return (len(images) == degree and set(map(type, images)) <= {int}
            and set(images) == set(range(degree)))


def _permutation_tuples(maps, degree=None):
    """``maps`` as image tuples, each a permutation of 0..degree-1; the
    degree defaults to the first map's length. Raises ValueError otherwise."""
    maps = tuple(map(tuple, maps))
    if degree is None:
        if not maps:
            raise ValueError("need generators or an explicit degree")
        degree = len(maps[0])
    for images in maps:
        if not _is_permutation(images, degree):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {images!r}")
    return maps


def cycles(images):
    """Every cycle of the permutation ``images``, fixed points included, each
    starting at its least point, in the order of those points."""
    seen, out = set(), []
    for start in range(len(images)):
        if start not in seen:
            cycle, point = [start], images[start]
            while point != start:
                cycle.append(point)
                point = images[point]
            seen.update(cycle)
            out.append(tuple(cycle))
    return out


def closure(generators, cap=DEFAULT_CLOSURE_CAP):
    """The full element set of the group generated, by breadth-first multiplication.

    Raises :class:`BudgetExceeded` once more than ``cap`` elements appear, which
    certifies that the generated group is larger than ``cap``.
    """
    generators = _permutation_tuples(generators)
    elements = {tuple(range(len(generators[0])))}
    frontier = [g for g in generators if g not in elements]
    elements.update(frontier)
    while frontier:
        new = []
        for g in generators:
            for h in frontier:
                prod = _after(g, h)
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
    """A permutation group given by image-tuple generators of one degree, with
    a stabilizer chain built on demand; the element list, a frozenset of
    image tuples, is enumerated only when asked for."""

    __slots__ = ("degree", "generators", "_elements", "_chain")

    def __init__(self, generators, degree=None):
        self.generators = generators = _permutation_tuples(generators, degree)
        self.degree = len(generators[0]) if generators else degree
        self._elements = None
        self._chain = None

    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def elements(self):
        if self._elements is None:
            self._elements = closure(self.generators or (tuple(range(self.degree)),))
        return self._elements

    def order(self):
        """The product of the basic orbit lengths of the stabilizer chain."""
        return math.prod(self.chain().orbit_lengths)

    def is_doubly_transitive(self):
        """Transitive, and the stabilizer of the first base point has an orbit
        of length n - 1. A chain of one level means a trivial stabilizer,
        whose orbits have length 1."""
        n = self.degree
        if n < 2:
            raise ValueError("double transitivity needs degree >= 2")
        lengths = [*self.chain().orbit_lengths, 1]
        return lengths[0] == n and lengths[1] == n - 1

    def __contains__(self, images):
        """Whether the sequence ``images`` is the image tuple of an element;
        False, never an error, for anything that is no permutation."""
        try:
            images = tuple(images)
        except TypeError:
            return False
        chain = self.chain()
        return _is_permutation(images, self.degree) and chain.sift(images)[0] == chain.identity

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"
