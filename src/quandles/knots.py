"""Oriented knots from signed Gauss codes, quandle colorings, and the
conjugacy-class valued cocycle invariant.

A signed Gauss code lists the passages met while traveling along the knot:
``O3+`` is an over-passage at crossing 3 of sign +, ``U3+`` the matching
under-passage. Arcs are the segments between consecutive under-passages.

Crossing convention (one consistent global choice; the mirrored choice is
exercised by the test suite on amphichiral knots): at a positive crossing
the outgoing under-arc color is over * incoming, at a negative crossing it
is over \\ incoming. The invariant multiplies beta(incoming under color,
over color)^sign over the under-passages in traversal order and records the
conjugacy class of the product, one class per non-monochromatic coloring.

Colorings come from :func:`quandles.search.solutions`: two colored arcs of a
crossing force the third, the search branches on the least arc nothing has
forced, and it counts one node per state entered (the root, and each color
whose propagation succeeds), raising BudgetExceeded past
``MAX_COLORING_NODES``. Inner automorphisms map colorings to colorings, so
:func:`col_count` needs no list: per orbit of Inn(Q), the search from arc 0
at its least point counts the colorings with arc 0 at each of its points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InconsistentSigns, InvalidCocycle, MalformedCode
from .search import solutions

_TOKEN_RE = re.compile(r"^([OU])(\d+)([+-])$")

MAX_COLORING_NODES = 10**6

GAUSS_CODES = {
    "unknot": "unknot",
    "trefoil_right": "O1+ U2+ O3+ U1+ O2+ U3+",
    "trefoil_right_rotated": "U2+ O3+ U1+ O2+ U3+ O1+",
    "trefoil_right_kinked": "O1+ U2+ O3+ U1+ O2+ U3+ O4+ U4+",
    "trefoil_left": "O1- U2- O3- U1- O2- U3-",
    "figure_eight": "O1+ U2+ O3- U4- O2+ U1+ O4- U3-",
}


@dataclass(frozen=True)
class Crossing:
    over_arc: int
    in_arc: int
    out_arc: int
    sign: int


@dataclass(frozen=True)
class KnotDiagram:
    """Crossing records plus the traversal order of passages.

    ``passages`` lists (crossing index, "over"/"under") in travel order, so
    each crossing appears exactly twice; ``under_order`` is the subsequence
    of crossing indices at their under-passages.
    """

    crossings: tuple
    arc_count: int
    passages: tuple

    @property
    def under_order(self):
        return tuple(c for c, kind in self.passages if kind == "under")


def unknot():
    return KnotDiagram(crossings=(), arc_count=1, passages=())


def parse_gauss(code):
    """Parse a signed Gauss code; the bare token ``unknot`` gives the 0-crossing
    diagram with a single arc."""
    tokens = code.split()
    if not tokens:
        raise MalformedCode("empty Gauss code")
    if tokens == ["unknot"]:
        return unknot()
    parsed = []
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise MalformedCode(f"bad token {tok!r}")
        kind, label, sign = m.group(1), int(m.group(2)), 1 if m.group(3) == "+" else -1
        parsed.append((kind, label, sign))
    seen = {}
    for kind, label, sign in parsed:
        entry = seen.setdefault(label, {})
        if kind in entry:
            raise MalformedCode(f"crossing {label} passed twice as {kind}")
        entry[kind] = sign
    for label, entry in seen.items():
        if set(entry) != {"O", "U"}:
            raise MalformedCode(f"crossing {label} lacks an over or under passage")
        if entry["O"] != entry["U"]:
            raise InconsistentSigns(f"crossing {label} has mismatched signs")
    labels = sorted(seen)
    crossing_index = {label: i for i, label in enumerate(labels)}
    c = len(labels)
    under_before = []
    count = 0
    for kind, _, _ in parsed:
        under_before.append(count)
        if kind == "U":
            count += 1
    over_arc = {}
    in_arc = {}
    passages = []
    for pos, (kind, label, _) in enumerate(parsed):
        arc = under_before[pos] % c
        ci = crossing_index[label]
        if kind == "O":
            over_arc[ci] = arc
            passages.append((ci, "over"))
        else:
            in_arc[ci] = arc
            passages.append((ci, "under"))
    crossings = tuple(
        Crossing(
            over_arc=over_arc[crossing_index[label]],
            in_arc=in_arc[crossing_index[label]],
            out_arc=(in_arc[crossing_index[label]] + 1) % c,
            sign=seen[label]["O"],
        )
        for label in labels
    )
    return KnotDiagram(crossings=crossings, arc_count=c, passages=tuple(passages))


def _relations(diagram, mirror_convention):
    """One relation top = mid * bot per crossing: (out, over, in) at a
    positive crossing and (in, over, out) at a negative one, or the other way
    round under ``mirror_convention``."""
    return [(cr.out_arc, cr.over_arc, cr.in_arc) if (cr.sign > 0) != mirror_convention
            else (cr.in_arc, cr.over_arc, cr.out_arc) for cr in diagram.crossings]


def colorings(diagram, quandle, *, mirror_convention=False):
    """All consistent arc colorings (monochromatic ones included), in
    lexicographic order of the color tuples, under :func:`_relations`."""
    return list(solutions(quandle, _relations(diagram, mirror_convention),
                          [-1] * diagram.arc_count, budget=MAX_COLORING_NODES, what="coloring"))


def col_count(diagram, quandle, *, mirror_convention=False):
    """The number of colorings that use more than one quandle element: every
    constant coloring is valid, because x * x = x. It runs one search per
    Inn(Q)-orbit: the search from arc 0 at the orbit's least point visits
    exactly the subtree of the :func:`colorings` search at that branch, so
    the searches together enter fewer nodes than that search does.
    """
    relations, free = _relations(diagram, mirror_convention), [-1] * (diagram.arc_count - 1)
    total = -quandle.size
    for orbit in quandle._lmlt_orbits()[1]:
        found = solutions(quandle, relations, [orbit[0]] + free,
                          budget=MAX_COLORING_NODES, what="coloring")
        total += len(orbit) * sum(1 for _ in found)
    return total


def cocycle_invariant(diagram, quandle, beta, *, start=0, mirror_convention=False):
    """Multiset of conjugacy classes of the crossing-weight products.

    For each non-monochromatic coloring, the weights beta(incoming under
    color, over color)^sign are multiplied over the under-passages in
    traversal order (rotated to ``start``), and the conjugacy class label of
    the product is recorded. Returned sorted, as a tuple of class labels.
    """
    if beta.quandle.table != quandle.table:
        raise InvalidCocycle("cocycle lives on a different quandle")
    g = beta.coeff
    order = diagram.under_order
    order = order[start:] + order[:start]
    labels = []
    for coloring in colorings(diagram, quandle, mirror_convention=mirror_convention):
        if len(set(coloring)) <= 1:
            continue
        product = g.identity
        for ci in order:
            cr = diagram.crossings[ci]
            value = beta.values[coloring[cr.in_arc]][coloring[cr.over_arc]]
            if cr.sign < 0:
                value = g.inv(value)
            product = g.mul(product, value)
        labels.append(g.label(g.class_rep(product)))
    return tuple(sorted(labels))
