#!/usr/bin/env python3
"""Sweep connected affine quandles and check the paper's theorems on pi1.

Covers every connected Q(Z_m, lambda_n) with m up to a bound, plus the
doubly transitive quandles Aff(F_q, omega) for q = 4, 8, 9, 16, 32 and 81,
with omega multiplication by a primitive element. By the paper's theorems
every entry is simply connected except the order-4 quandle, whose pi1 is
Z 2. The nontrivial groups are printed; the exit status is 1 if any entry
disagrees with the theorems, else 0. No quandle table is built.

    PYTHONPATH=src python3 scripts/simply_connected_sweep.py --max-modulus 150
"""

import argparse
import math
import sys

from quandles import AbHom, FinAbGroup, affine_quandle, pi1_affine


def invariants_text(invariants):
    return " x ".join(f"Z {d}" for d in invariants) if invariants else "trivial"


def cyclic_sweep(bound):
    rows = []
    for m in range(2, bound + 1):
        group = FinAbGroup.cyclic(m)
        for n in range(2, m):
            if math.gcd(m, n) == 1 and math.gcd(m, 1 - n) == 1:
                quandle = affine_quandle(group, AbHom.scaling(group, n))
                rows.append((f"Q(Z_{m}, {n}x)", pi1_affine(quandle), ()))
    return rows


def special_family():
    cases = [
        ("Q(Z_2^2, 3-cycle)", (2, 2), [[1, 1], [1, 0]]),
        ("Q(Z_2^3, 7-cycle)", (2, 2, 2), [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
        ("Q(Z_3^2, 8-cycle)", (3, 3), [[0, 1], [1, 2]]),
        ("Q(Z_2^4, 15-cycle)", (2, 2, 2, 2),
         [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]),
        # companion matrices of x^5 + x^2 + 1 over F_2 and x^4 + x + 2 over F_3
        ("Q(Z_2^5, 31-cycle)", (2, 2, 2, 2, 2),
         [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0],
          [0, 0, 0, 1, 0]]),
        ("Q(Z_3^4, 80-cycle)", (3, 3, 3, 3),
         [[0, 0, 0, 1], [1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]]),
    ]
    rows = []
    for name, moduli, matrix in cases:
        quandle = affine_quandle(FinAbGroup(moduli), matrix)
        expected = (2,) if math.prod(moduli) == 4 else ()
        rows.append((name, pi1_affine(quandle), expected))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-modulus", type=int, default=150)
    args = parser.parse_args()
    rows = cyclic_sweep(args.max_modulus) + special_family()
    nontrivial = 0
    for name, invariants, _ in rows:
        if invariants:
            nontrivial += 1
            print(f"{name:24s} pi1 = {invariants_text(invariants)}")
    print(f"checked {len(rows)} connected affine quandles, "
          f"{nontrivial} with nontrivial fundamental group")
    broken = [(name, invariants, expected) for name, invariants, expected in rows
              if invariants != expected]
    for name, invariants, expected in broken:
        print(f"{name}: pi1 = {invariants_text(invariants)}, the theorems give "
              f"{invariants_text(expected)}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
