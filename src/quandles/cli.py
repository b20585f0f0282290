"""Batch command-line front end for reproducible verification runs.

Subcommands: check, h2c, pi1, cover, knot, orbits. Reports are plain text,
or JSON with --json; identical invocations produce byte-identical output.

Exit codes: 0 success, 1 mathematical negative (e.g. the input is not a
quandle, or a covering check fails), 2 usage or parse error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .abelian import AbHom, FinAbGroup
from .cocycles import (
    DEFAULT_H2C_NODE_BUDGET,
    PairMaps,
    _pair_partition,
    cocycle_from_json,
    cocycle_to_json,
    h2c,
    parse_coeff_descriptor,
)
from .core import _require_automorphism, affine_is_connected, load_quandle_file
from .errors import AxiomError, BudgetExceeded, QuandleError
from .knots import cocycle_invariant, parse_gauss
from .coverings import is_covering
from .pi1 import pi1_presentation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _json_integers(text, what, nested=False):
    """A JSON list of integers, or with ``nested`` a list of such lists; any
    other value, a float or a bool entry included, is a ValueError (exit 2)."""
    value = json.loads(text)
    rows = value if nested and isinstance(value, list) else [value]
    if not all(isinstance(row, list) and all(type(v) is int for v in row) for row in rows):
        raise ValueError(f"{what} must be a list of {'lists of ' * nested}integers: {text}")
    return value


def _invariants_text(invariants):
    if not invariants:
        return "trivial"
    return " x ".join(f"Z {d}" for d in invariants)


def cmd_check(args):
    try:
        q = load_quandle_file(args.table)
    except AxiomError as exc:
        print(f"not a quandle: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    semi = q.semiregular_length()
    lmlt_order = q.lmlt().order()
    payload = {
        "size": q.size,
        "quandle": True,
        "latin": q.is_latin,
        "connected": q.is_connected(),
        "doubly_transitive": q.is_doubly_transitive(),
        "semiregular": semi is not None,
        "semiregular_length": semi,
        "lmlt_order": lmlt_order,
    }
    lines = [
        f"size: {q.size}",
        "quandle: yes",
        f"latin: {'yes' if payload['latin'] else 'no'}",
        f"connected: {'yes' if payload['connected'] else 'no'}",
        f"doubly transitive: {'yes' if payload['doubly_transitive'] else 'no'}",
        f"semiregular: {('s=' + str(semi)) if semi is not None else 'no'}",
        f"lmlt order: {lmlt_order}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_h2c(args):
    q = load_quandle_file(args.table)
    coeff = parse_coeff_descriptor(args.coeff)
    reps = h2c(q, coeff, u=args.base_point, node_budget=args.budget)
    payload = {
        "classes": len(reps),
        "coeff": coeff.descriptor(),
        "representatives": [cocycle_to_json(r, quandle_ref=args.table) for r in reps],
    }
    lines = [f"coefficients: {coeff.descriptor()}", f"classes: {len(reps)}"]
    for i, rep in enumerate(reps):
        lines.append(f"representative {i}:")
        for row in rep.values:
            lines.append("  " + " ".join(coeff.label(v) for v in row))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_pi1(args):
    group = FinAbGroup.from_descriptor(args.group)
    alpha = AbHom(group, group, _json_integers(args.matrix, "matrix", nested=True))
    _require_automorphism(group, alpha)
    if not affine_is_connected(group, alpha):
        print("not connected: 1 - alpha is not an automorphism", file=sys.stderr)
        return EXIT_NEGATIVE
    pres = pi1_presentation(group, alpha)
    payload = {
        "group": group.descriptor(),
        "pi1": list(pres.invariants),
        "tensor_square_order": pres.tensor_order,
        "relator_subgroup_order": pres.relator_order,
        "relators": [list(r) for r in pres.relators],
        "simply_connected": pres.is_trivial(),
        "quandle_size": group.order,
    }
    lines = [
        f"pi1: {_invariants_text(pres.invariants)}",
        f"|G(x)G|: {pres.tensor_order}",
        f"|I|: {pres.relator_order}",
        f"simply connected: {'yes' if pres.is_trivial() else 'no'}",
        "relators: " + "; ".join(str(list(r)) for r in pres.relators),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_cover_verify(args):
    base = load_quandle_file(args.base)
    total = load_quandle_file(args.total)
    mapping = _json_integers(args.map, "--map")
    result = is_covering(total, base, mapping, require_connected=args.require_connected)
    payload = {"covering": result}
    _emit(args, payload, [f"covering: {'yes' if result else 'no'}"])
    return EXIT_OK if result else EXIT_NEGATIVE


def cmd_knot(args):
    q = load_quandle_file(args.quandle)
    coeff = parse_coeff_descriptor(args.coeff)
    with open(args.cocycle, "r", encoding="ascii") as fh:
        beta = cocycle_from_json(json.load(fh), quandle=q, coeff=coeff)
    diagram = parse_gauss(args.gauss)
    invariant = cocycle_invariant(diagram, q, beta)
    # one label per non-monochromatic coloring; all constant ones are valid
    count = len(invariant)
    total = count + q.size
    payload = {
        "colorings": total,
        "col_count": count,
        "invariant": list(invariant),
    }
    lines = [
        f"colorings: {total}",
        f"col_count: {count}",
        f"invariant: [{', '.join(invariant)}]",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_orbits(args):
    q = load_quandle_file(args.table)
    u = args.base_point
    maps = PairMaps(q, u)
    parts = {gens: _pair_partition(q, u, gens, maps) for gens in ("f", "g", "h", "fgh")}
    gpart = parts["g"]
    payload = {
        "base_point": u,
        "sizes": {gens: sorted(part.sizes()) for gens, part in parts.items()},
        "g_uu_block_size": len(gpart.blocks[gpart.uu_block]),
        "g_f_family_blocks": sorted(gpart.f_family),
        "g_u_family_blocks": sorted(gpart.u_family),
    }
    lines = [
        f"base point: {u}",
        *(
            f"{gens} orbit sizes: {sorted(part.sizes())}"
            for gens, part in parts.items()
        ),
        f"g-orbit of (u,u): block {gpart.uu_block} (size 1)",
        f"f-family g-blocks: {sorted(gpart.f_family)}",
        f"u-family g-blocks: {sorted(gpart.u_family)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Finite quandle toolkit: structure checks, constant cohomology, "
        "affine fundamental groups, coverings, knot invariants.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a table file and report structure flags")
    p.add_argument("table")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("h2c", help="second constant cohomology classes of a latin table")
    p.add_argument("table")
    p.add_argument("coeff", help="coefficient group, e.g. Sym(2), Z2, 'Z 2 x Z 2'")
    p.add_argument("--base-point", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_H2C_NODE_BUDGET)
    p.set_defaults(fn=cmd_h2c)

    p = sub.add_parser("pi1", help="fundamental group of a connected affine quandle")
    p.add_argument("group", help="abelian group descriptor, e.g. 'Z 2 x Z 2'")
    p.add_argument("matrix", help="automorphism matrix as JSON, e.g. [[1,1],[1,0]]")
    p.set_defaults(fn=cmd_pi1)

    p = sub.add_parser("cover", help="covering checks")
    cover_sub = p.add_subparsers(dest="cover_command", required=True)
    pv = cover_sub.add_parser("verify", help="verify a projection is a covering")
    pv.add_argument("--base", required=True)
    pv.add_argument("--total", required=True)
    pv.add_argument("--map", required=True, help="JSON list: base point for each total point")
    pv.add_argument("--require-connected", action="store_true")
    pv.set_defaults(fn=cmd_cover_verify)

    p = sub.add_parser("knot", help="knot coloring counts and cocycle invariants")
    knot_sub = p.add_subparsers(dest="knot_command", required=True)
    pk = knot_sub.add_parser("invariant")
    pk.add_argument("--quandle", required=True)
    pk.add_argument("--coeff", required=True)
    pk.add_argument("--cocycle", required=True, help="cocycle JSON file")
    pk.add_argument("--gauss", required=True, help="signed Gauss code, or 'unknot'")
    pk.set_defaults(fn=cmd_knot)

    p = sub.add_parser("orbits", help="orbit partitions of the pair bijections")
    p.add_argument("table")
    p.add_argument("base_point", type=int)
    p.set_defaults(fn=cmd_orbits)

    return parser


# built on the first call, not at import; parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # malformed input: JSON nested past the interpreter's recursion limit, and
    # a malformed Gauss code, a QuandleError that is also a ValueError
    except (OSError, ValueError, RecursionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuandleError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    raise SystemExit(main())
