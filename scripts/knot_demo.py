#!/usr/bin/env python3
"""Coloring counts and conjugacy cocycle invariants for the knot fixtures.

Shows the trefoil distinguished from the unknot by the order-4 quandle, and
the trivial invariants produced by the simply connected dihedral quandle.

Each count, taken with one search per orbit of the inner automorphism group,
is checked against the full list of colorings minus the constant ones. The
script exits with status 1 on any mismatch.
"""

import argparse
import sys

from quandles import CoeffGroup, ConstantCocycle, FinAbGroup, affine_quandle
from quandles import dihedral_quandle, trivial_cocycle
from quandles.knots import GAUSS_CODES, cocycle_invariant, col_count, colorings, parse_gauss


def order_four_cocycle():
    q4 = affine_quandle(FinAbGroup((2, 2)), [[1, 1], [1, 0]])
    z2 = CoeffGroup.abelian((2,))
    values = [
        [z2.identity if x == y or x == 0 or y == 0 else 1 for y in range(4)]
        for x in range(4)
    ]
    return q4, ConstantCocycle(q4, z2, values)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    r3 = dihedral_quandle(3)
    q4, beta = order_four_cocycle()
    trivial_r3 = trivial_cocycle(r3, CoeffGroup.symmetric(2))
    failures = []
    for name in ("unknot", "trefoil_right", "trefoil_left", "figure_eight"):
        diagram = parse_gauss(GAUSS_CODES[name])
        counts_r3 = col_count(diagram, r3)
        counts_q4 = col_count(diagram, q4)
        invariant = cocycle_invariant(diagram, q4, beta)
        summary = ", ".join(sorted(set(invariant))) if invariant else "-"
        print(
            f"{name:22s} col(R_3) = {counts_r3:2d}   col(Q4) = {counts_q4:2d}   "
            f"Q4 invariant classes: {summary}"
        )
        assert cocycle_invariant(diagram, r3, trivial_r3) == ("[0,1]",) * counts_r3
        for label, quandle, count in (("R_3", r3, counts_r3), ("Q4", q4, counts_q4)):
            listed = len(colorings(diagram, quandle)) - quandle.size
            if count != listed:
                failures.append(f"{name} by {label}: col_count {count}, colorings {listed}")
    for line in failures:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
