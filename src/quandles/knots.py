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

Colorings are found by propagation: a color on two arcs of a crossing forces
the third (by the table, by left division, or on a latin quandle by right
division), and the search branches only on arcs nothing has forced, least
arc first, so the list comes out in lexicographic order. The search counts
one node per color tried at a branch and raises BudgetExceeded past
``MAX_COLORING_NODES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BudgetExceeded, InconsistentSigns, InvalidCocycle, MalformedCode

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


def colorings(diagram, quandle, *, mirror_convention=False):
    """All consistent arc colorings (monochromatic ones included), in
    lexicographic order of the color tuples.

    Each crossing is the relation top = mid * bot: (out, over, in) at a
    positive crossing and (in, over, out) at a negative one, or the other
    way round under ``mirror_convention``. Assigning an arc visits the
    relations through it: known mid and bot force top, known mid and top
    force bot by left division, and on a latin quandle known top and bot
    force mid by right division. A relation is checked whenever its last
    arc gets a color, so every returned coloring satisfies every crossing.
    The search branches on the least uncolored arc, colors ascending, which
    keeps the output in the order of ``itertools.product``. Each color tried
    at a branch is one node; more than ``MAX_COLORING_NODES`` raises
    BudgetExceeded.
    """
    table = quandle.table
    left, right = quandle._division_rows()
    n, a = quandle.size, diagram.arc_count
    watch = [[] for _ in range(a)]
    for cr in diagram.crossings:
        if (cr.sign > 0) != mirror_convention:
            relation = (cr.out_arc, cr.over_arc, cr.in_arc)
        else:
            relation = (cr.in_arc, cr.over_arc, cr.out_arc)
        for arc in set(relation):
            watch[arc].append(relation)
    colors = [-1] * a
    trail = []

    def assign(arc, color):
        """Color ``arc`` and everything it forces; False on a conflict."""
        colors[arc] = color
        trail.append(arc)
        stack = [arc]
        while stack:
            for top, mid, bot in watch[stack.pop()]:
                t, m, b = colors[top], colors[mid], colors[bot]
                if m >= 0 and b >= 0:
                    forced, value = top, table[m][b]
                    if t == value:
                        continue
                    if t >= 0:
                        return False
                elif m >= 0 and t >= 0:
                    forced, value = bot, left[m][t]
                elif right is not None and t >= 0 and b >= 0:
                    forced, value = mid, right[b][t]
                else:
                    continue
                colors[forced] = value
                trail.append(forced)
                stack.append(forced)
        return True

    out = []
    branches = []  # [arc, next color, trail length before the arc], innermost last
    nodes = 0
    arc = 0
    while True:
        while arc < a and colors[arc] >= 0:
            arc += 1
        if arc < a:
            branches.append([arc, 0, len(trail)])
        else:
            out.append(tuple(colors))
        while branches:
            branch = branches[-1]
            arc, color, mark = branch
            while len(trail) > mark:
                colors[trail.pop()] = -1
            if color == n:
                branches.pop()
                continue
            branch[1] = color + 1
            nodes += 1
            if nodes > MAX_COLORING_NODES:
                raise BudgetExceeded(f"coloring search exceeded {MAX_COLORING_NODES} nodes")
            if assign(arc, color):
                break
        else:
            return out


def col_count(diagram, quandle, *, mirror_convention=False):
    """The number of colorings that use more than one quandle element: every
    constant coloring is valid, because x * x = x."""
    return len(colorings(diagram, quandle, mirror_convention=mirror_convention)) - quandle.size


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
