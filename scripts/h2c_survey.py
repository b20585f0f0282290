#!/usr/bin/env python3
"""Survey second constant cohomology class counts across small latin quandles.

Rows are connected affine quandles, columns coefficient groups; each cell is
the number of cohomology classes (1 means every covering with that fiber
structure is trivial). The last five rows are the doubly transitive quandles
Aff(F_q, omega) of orders 27, 32, 49, 81 and 243, omega multiplication by a
primitive element: every count is 1, as the theorem that these quandles are
simply connected for q != 4 says, while Q4 = Aff(F_4, omega) is the exception.

Each row is cross-checked against pi1 of its quandle: over an abelian group
A the count must be |Hom(pi1, A)| = prod gcd(d_i, a_j), and when pi1 is
trivial every count must be 1. The script exits with status 1 on any
contradiction.
"""

import argparse
import math
import sys

from quandles import CoeffGroup, FinAbGroup, affine_quandle, h2c, pi1_affine

QUANDLES = [
    ("R_3", (3,), [[2]]),
    ("Q4", (2, 2), [[1, 1], [1, 0]]),
    ("Q(Z_5,2x)", (5,), [[2]]),
    ("Q(Z_5,3x)", (5,), [[3]]),
    ("Q(Z_7,3x)", (7,), [[3]]),
    ("Q(Z_2^3,7c)", (2, 2, 2), [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
    # companion matrices of x^3 - x^2 - 2 over F_3, x^5 + x^2 + 1 over F_2,
    # x^2 - 2x - 2 over F_7, x^4 + x + 2 over F_3 and x^5 - x^4 - 2 over F_3
    ("Q(Z_3^3,26c)", (3, 3, 3), [[0, 0, 2], [1, 0, 0], [0, 1, 1]]),
    ("Q(Z_2^5,31c)", (2, 2, 2, 2, 2),
     [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]),
    ("Q(Z_7^2,48c)", (7, 7), [[0, 2], [1, 2]]),
    ("Q(Z_3^4,80c)", (3, 3, 3, 3), [[0, 0, 0, 1], [1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]]),
    ("Q(Z_3^5,242c)", (3, 3, 3, 3, 3),
     [[0, 0, 0, 0, 2], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1]]),
]

# (name, group, moduli of an abelian group or None)
COEFFS = [
    ("Z2", CoeffGroup.abelian((2,)), (2,)),
    ("Z3", CoeffGroup.abelian((3,)), (3,)),
    ("Z2xZ2", CoeffGroup.abelian((2, 2)), (2, 2)),
    ("Sym2", CoeffGroup.symmetric(2), None),
    ("Sym3", CoeffGroup.symmetric(3), None),
]


def contradictions(name, invariants, counts):
    """The cells whose count disagrees with what pi1 forces."""
    out = []
    for (coeff_name, _, moduli), count in zip(COEFFS, counts):
        if moduli is not None:
            expected = math.prod(math.gcd(d, a) for d in invariants for a in moduli)
        elif not invariants:
            expected = 1
        else:
            continue
        if count != expected:
            out.append(f"{name} over {coeff_name}: {count} classes, but pi1 = "
                       f"{invariants or 'trivial'} forces {expected}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    header = f"{'quandle':14s}" + "".join(f"{name:>8s}" for name, _, _ in COEFFS)
    print(header)
    failures = []
    for name, moduli, matrix in QUANDLES:
        quandle = affine_quandle(FinAbGroup(moduli), matrix)
        counts = [len(h2c(quandle, coeff)) for _, coeff, _ in COEFFS]
        print(f"{name:14s}" + "".join(f"{c:8d}" for c in counts))
        failures += contradictions(name, pi1_affine(quandle), counts)
    for line in failures:
        print(f"contradiction: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
