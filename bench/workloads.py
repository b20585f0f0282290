"""The four benchmark workloads.

Each workload function takes the imported ``quandles`` package, a seeded
``random.Random`` and a scratch directory, and returns one round: a list of
tasks in a seeded order. The seed picks among equal-size alternatives
(primitive polynomials, crossing labels) and relabels
points, so every round does the same amount of work and has the same
answers whatever the seed. Each task's ``run`` is the timed call into the
toolkit; its ``check`` compares the result with an oracle from ``inputs``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import inputs as ix


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _family(rng, kind, p, k):
    """Seeded (moduli, alpha, pi1) of a connected affine quandle.

    ``prim``: Aff(F_p^k, omega) with omega a primitive companion matrix,
    conjugated by a random P in GL_k(F_p); pi1 is trivial except Z_2 at order 4.
    ``neg``: alpha = -1 on Z_p^k (p odd), pi1 = Z_p for k = 2.
    """
    if kind == "prim":
        alpha = ix.relabel_alpha(rng, rng.choice(ix.primitive_companions(p, k)), p)
        return (p,) * k, alpha, ((2,) if p**k == 4 else ())
    alpha = [[(p - 1) * int(i == j) for j in range(k)] for i in range(k)]
    return (p,) * k, alpha, ((p,) if k == 2 else ())


# ---------------------------------------------------------------- cohomology

# (family, coefficient groups). The slow tail, about one task in five so
# that p90 falls inside it, is the simply connected Aff(F_27, omega) and
# q4 over Sym(5); the median sits among Aff(F_25, omega), Q(Z_5^2, -1) and
# the small non-simply-connected quandles.
COHOMOLOGY = [
    (("prim", 3, 3), [("ab", (2,)), ("ab", (3,)), ("ab", (2, 2)), ("sym", 3)]),
    (("prim", 5, 2), [("ab", (2,)), ("ab", (3,)), ("sym", 2), ("sym", 3)]),
    (("neg", 5, 2), [("ab", (2,)), ("sym", 3), ("sym", 4)]),
    (("prim", 2, 2), [("ab", (2,)), ("ab", (4,)), ("ab", (2, 2)), ("sym", 3), ("sym", 4),
                      ("sym", 5)]),
    (("neg", 3, 2), [("ab", (3,)), ("ab", (9,)), ("ab", (3, 3)), ("sym", 3), ("sym", 4)]),
]
EMBED_MAX_ORDER = 6  # embed_coeffs builds Sym(|G|) eagerly
EXTEND_MAX_POINTS = 36
CONGRUENCE_MAX_POINTS = 8  # brute-force oracle: Bell(8) = 4140 partitions


def cohomology(q, rng, workdir):
    tasks = []
    brute = {}
    for (kind, p, k), coeffs in COHOMOLOGY:
        moduli, alpha, pi1 = _family(rng, kind, p, k)
        n = math.prod(moduli)
        for coeff in coeffs:
            fiber = coeff[1] if coeff[0] == "sym" else ix.coeff_order(coeff)
            extendable = (coeff[0] == "sym" or fiber <= EMBED_MAX_ORDER) and (
                n * fiber <= EXTEND_MAX_POINTS
            )
            expected = ix.hom_classes(pi1, coeff)

            def run(moduli=moduli, alpha=alpha, coeff=coeff, extendable=extendable):
                quandle = q.affine_quandle(q.FinAbGroup(moduli), alpha)
                group = q.parse_coeff_descriptor(ix.coeff_descriptor(coeff))
                reps = q.h2c(quandle, group)
                coverings = []
                trivial = None
                for rep in reps:
                    if rep.is_trivial() or not extendable:
                        continue
                    beta = rep if coeff[0] == "sym" else q.embed_coeffs(rep)
                    if trivial is None:
                        trivial = q.extend(quandle, q.trivial_cocycle(quandle, beta.coeff))
                    ext = q.extend(quandle, beta)
                    congruences = None
                    if ext.total.size <= CONGRUENCE_MAX_POINTS:
                        congruences = {c.blocks for c in q.all_congruences(ext.total)}
                    coverings.append(
                        (q.coverings_equivalent(ext, trivial), ext.total.table, congruences)
                    )
                return len(reps), sum(not rep.is_trivial() for rep in reps), coverings

            def check(result, expected=expected, extendable=extendable):
                classes, nontrivial, coverings = result
                if classes != expected or nontrivial != expected - 1:
                    return False
                if extendable and len(coverings) != nontrivial:
                    return False
                for equivalent, total, congruences in coverings:
                    if equivalent:  # a nontrivial class never gives the trivial covering
                        return False
                    if congruences is not None:
                        if total not in brute:
                            brute[total] = ix.congruences_brute(total)
                        if congruences != brute[total]:
                            return False
                return True

            label = f"h2c {kind}({p}^{k}) {ix.coeff_descriptor(coeff)}"
            tasks.append(Task(label, run, check))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- affine-pi1

PI1_SPECIAL = [("prim", 2, 2), ("prim", 2, 3), ("prim", 2, 4), ("prim", 3, 2), ("prim", 3, 3),
               ("prim", 5, 2), ("neg", 3, 2), ("neg", 5, 2), ("neg", 7, 2)]
CYCLIC_MAX_MODULUS = 50


def affine_pi1(q, rng, workdir):
    tasks = []
    for m in range(1, CYCLIC_MAX_MODULUS + 1):
        for n in range(m):
            if math.gcd(m, n) != 1 or math.gcd(m, 1 - n) != 1:
                continue

            def run(m=m, n=n):
                group = q.FinAbGroup.cyclic(m)
                return q.pi1_affine(q.affine_quandle(group, q.AbHom.scaling(group, n)))

            tasks.append(Task(f"pi1 Q(Z_{m}, {n}x)", run, lambda r: r == ()))
    for kind, p, k in PI1_SPECIAL:
        moduli, alpha, pi1 = _family(rng, kind, p, k)
        tensor_order = math.prod(math.gcd(a, b) for a in moduli for b in moduli)

        def run(moduli=moduli, alpha=alpha):
            quandle = q.affine_quandle(q.FinAbGroup(moduli), alpha)
            pres = q.pi1_presentation(quandle.group, quandle.alpha)
            return pres.invariants, pres.relator_order, pres.tensor_order

        def check(result, pi1=pi1, tensor_order=tensor_order):
            invariants, relator_order, tensor = result
            return (
                invariants == pi1
                and tensor == tensor_order
                and relator_order * math.prod(invariants) == tensor_order
            )

        tasks.append(Task(f"pi1 {kind}({p}^{k})", run, check))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- knot-coloring

TORUS = (3, 5, 7, 9)
FIXTURES = ("unknot", "trefoil_right", "trefoil_right_rotated", "trefoil_right_kinked",
            "trefoil_left", "figure_eight")
# (quandle, cocycle coefficients or None for the trivial cocycle, knots).
# The slowest pairs (T(2,9) by R_7, T(2,7) by Q(Z_3^2, -1), T(2,5) and 6_1
# by Aff(F_16)) are left out: above p90 they only added noise, and p90
# now falls among several pairs of similar cost.
KNOT_PAIRS = [
    (("dihedral", 3, 1), None, [f"T{c}" for c in TORUS] + ["4_1", "5_2", "6_1"]),
    (("dihedral", 5, 1), None, [f"T{c}" for c in TORUS] + ["4_1", "5_2", "6_1"]),
    (("dihedral", 7, 1), None, ["T3", "T5", "T7", "4_1", "5_2", "6_1"]),
    (("prim", 2, 2), ("ab", (2,)), [f"T{c}" for c in TORUS] + ["4_1", "5_2", "6_1", *FIXTURES]),
    (("prim", 2, 2), ("sym", 3), ["T3", "T5", "4_1", *FIXTURES]),
    (("neg", 3, 2), ("ab", (3,)), ["T3", "T5", "4_1", "5_2", "6_1"]),
    (("prim", 2, 3), None, ["T3", "T5", "T7", "4_1", "5_2", "6_1"]),
    (("prim", 3, 2), None, ["T3", "T5", "4_1", "5_2", "6_1"]),
    (("prim", 2, 4), None, ["T3", "4_1"]),
    (("prim", 5, 2), None, ["T3", "4_1"]),
    (("prim", 3, 3), None, ["T3", "4_1"]),
]


def _knot_codes(q, rng):
    """Gauss codes by name: T(2,c) torus knots, twist knots, and the fixtures,
    generated ones with seeded crossing labels."""
    codes = {}
    for c in TORUS:
        labels = rng.sample(range(1, 10 * c), c)
        codes[f"T{c}"] = (ix.braid_closure_gauss((1,) * c, 2, labels), c)
    for name, (word, strands, det) in ix.TWIST_BRAIDS.items():
        labels = rng.sample(range(1, 10 * len(word)), len(word))
        codes[name] = (ix.braid_closure_gauss(word, strands, labels), det)
    for name in FIXTURES:
        codes[name] = (q.knots.GAUSS_CODES[name], None)
    return codes


def knot_coloring(q, rng, workdir):
    codes = _knot_codes(q, rng)
    tasks = []
    for (kind, p, k), coeff, knots in KNOT_PAIRS:
        if kind == "dihedral":
            alpha = [[p - 1]]
            quandle = q.dihedral_quandle(p)
        else:
            moduli, alpha, _ = _family(rng, kind, p, k)
            quandle = q.affine_quandle(q.FinAbGroup(moduli), alpha)
        if coeff is None:
            coeff = ("sym", 2)
            beta = q.trivial_cocycle(quandle, q.CoeffGroup.symmetric(2))
        else:
            group = q.parse_coeff_descriptor(ix.coeff_descriptor(coeff))
            beta = next(r for r in q.h2c(quandle, group) if not r.is_trivial())
        labels = [[beta.coeff.label(v) for v in row] for row in beta.values]
        for name in knots:
            code, det = codes[name]
            cols = ix.affine_colorings(code, p, alpha)
            if det is not None and k == 1 and len(cols) != p * (p if det % p == 0 else 1):
                # Fox: R_p colors a knot of determinant det in p * p^[p | det] ways
                raise AssertionError(f"kernel colorings of {name} by R_{p} break Fox's count")
            expected = (
                sorted(cols),
                len(cols) - quandle.size,
                ix.expected_invariant(code, cols, coeff, labels),
            )

            def run(code=code, quandle=quandle, beta=beta):
                diagram = q.knots.parse_gauss(code)
                found = q.knots.colorings(diagram, quandle)
                count = q.knots.col_count(diagram, quandle)
                return sorted(found), count, q.knots.cocycle_invariant(diagram, quandle, beta)

            tasks.append(Task(f"{name} by {kind}({p}^{k})", run, expected.__eq__))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- cli-batch

CLI_TABLES = {
    "q4": ("prim", 2, 2),
    "z9n": ("neg", 3, 2),
    "z16": ("prim", 2, 4),
    "z25": ("prim", 5, 2),
    "z27": ("prim", 3, 3),
    "z32": ("prim", 2, 5),
}


def _cli_invoke(q, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = q.cli.main(argv)
    return code, out.getvalue()


def cli_batch(q, rng, workdir):
    tables = {}
    for name, (kind, p, k) in CLI_TABLES.items():
        moduli, alpha, pi1 = _family(rng, kind, p, k)
        table, sigma = ix.relabel_table(rng, ix.affine_table(moduli, alpha))
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(ix.table_text(table))
        tables[name] = dict(path=path, table=table, sigma=sigma, alpha=alpha, pi1=pi1,
                            kind=kind, p=p)

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return path

    specs = []  # (argv, expected JSON fields, expected text lines, use --json)

    for name, as_json in (("z32", True), ("z27", False), ("z16", True), ("q4", False)):
        t = tables[name]
        n = len(t["table"])
        order = ix.mat_order(t["alpha"], t["p"])
        doubly = t["kind"] == "prim"
        expect = {"size": n, "quandle": True, "latin": True, "connected": True,
                  "doubly_transitive": doubly, "semiregular": True,
                  "semiregular_length": order, "lmlt_order": n * order}
        lines = [f"size: {n}", "latin: yes", "connected: yes",
                 f"doubly transitive: {'yes' if doubly else 'no'}",
                 f"semiregular: s={order}", f"lmlt order: {n * order}"]
        specs.append((["check", t["path"]], expect, lines, as_json))

    for name, as_json in (("z27", True), ("z9n", False)):
        t = tables[name]
        u = rng.randrange(len(t["table"]))
        sizes = ix.pair_orbit_sizes(t["table"], u)
        lines = [f"{gens} orbit sizes: {sizes[gens]}" for gens in sizes]
        specs.append((["orbits", t["path"], str(u)], {"sizes": sizes, "g_uu_block_size": 1},
                      lines, as_json))

    for name, coeff, as_json in (("z9n", ("ab", (3,)), True), ("q4", ("sym", 3), True),
                                 ("z25", ("ab", (2,)), False), ("z27", ("sym", 3), True)):
        t = tables[name]
        desc = ix.coeff_descriptor(coeff)
        classes = ix.hom_classes(t["pi1"], coeff)
        specs.append((["h2c", t["path"], desc], {"classes": classes, "coeff": desc},
                      [f"coefficients: {desc}", f"classes: {classes}"], as_json))

    for kind, p, k, as_json in (("prim", 2, 3, True), ("prim", 2, 2, True), ("neg", 5, 2, False)):
        moduli, alpha, pi1 = _family(rng, kind, p, k)
        tensor = math.prod(math.gcd(a, b) for a in moduli for b in moduli)
        relators = tensor // math.prod(pi1)
        expect = {"pi1": list(pi1), "tensor_square_order": tensor,
                  "relator_subgroup_order": relators,
                  "simply_connected": not pi1, "quandle_size": math.prod(moduli)}
        pi1_text = " x ".join(f"Z {d}" for d in pi1) if pi1 else "trivial"
        lines = [f"pi1: {pi1_text}", f"|G(x)G|: {tensor}", f"|I|: {relators}",
                 f"simply connected: {'no' if pi1 else 'yes'}"]
        group = " x ".join(f"Z {d}" for d in moduli)
        specs.append((["pi1", group, json.dumps(alpha)], expect, lines, as_json))

    # nontrivial coverings from h2c on the relabeled tables, with relabeled totals
    for name, coeff, as_json in (("z9n", ("sym", 3), True), ("q4", ("sym", 2), False)):
        t = tables[name]
        base = q.from_table(t["table"])
        group = q.parse_coeff_descriptor(ix.coeff_descriptor(coeff))
        beta = next(r for r in q.h2c(base, group) if not r.is_trivial())
        perms = [[group.perm_images(v) for v in row] for row in beta.values]
        total, tau = ix.relabel_table(rng, ix.extension_table(t["table"], perms))
        projection = [0] * len(total)
        for point, image in enumerate(tau):
            projection[image] = point // coeff[1]
        total_path = write(f"{name}_total.txt", ix.table_text(total))
        specs.append((["cover", "verify", "--base", t["path"], "--total", total_path,
                       "--map", json.dumps(projection)], {"covering": True},
                      ["covering: yes"], as_json))

    codes = _knot_codes(q, rng)
    for name, coeff, knot, as_json in (("q4", ("ab", (2,)), "T3", True),
                                       ("z9n", ("ab", (3,)), "4_1", False)):
        t = tables[name]
        base = q.from_table(t["table"])
        group = q.parse_coeff_descriptor(ix.coeff_descriptor(coeff))
        beta = next(r for r in q.h2c(base, group) if not r.is_trivial())
        cocycle_path = write(f"{name}_cocycle.json",
                             json.dumps(q.cocycle_to_json(beta, quandle_ref=t["path"])))
        code = codes[knot][0]
        sigma = t["sigma"]
        cols = [tuple(sigma[c] for c in col)
                for col in ix.affine_colorings(code, t["p"], t["alpha"])]
        labels = [[group.label(v) for v in row] for row in beta.values]
        invariant = list(ix.expected_invariant(code, cols, coeff, labels))
        count = len(cols) - len(t["table"])
        expect = {"colorings": len(cols), "col_count": count, "invariant": invariant}
        lines = [f"colorings: {len(cols)}", f"col_count: {count}",
                 f"invariant: [{', '.join(invariant)}]"]
        specs.append((["knot", "invariant", "--quandle", t["path"], "--coeff",
                       ix.coeff_descriptor(coeff), "--cocycle", cocycle_path, "--gauss", code],
                      expect, lines, as_json))

    rng.shuffle(specs)
    tasks = []
    for argv, expect, lines, as_json in specs:
        argv = (["--json"] if as_json else []) + argv
        first = {}

        def run(argv=argv):
            return _cli_invoke(q, argv)

        def check_first(result, expect=expect, lines=lines, as_json=as_json, first=first):
            code, text = result
            first["result"] = result
            if code != 0:
                return False
            if as_json:
                payload = json.loads(text)
                if "sizes" in payload:
                    payload["sizes"] = {g: sorted(s) for g, s in payload["sizes"].items()}
                return all(payload.get(key) == value for key, value in expect.items())
            return set(lines) <= set(text.splitlines())

        def check_repeat(result, first=first):
            return result == first.get("result")

        tasks.append(Task(f"cli {' '.join(argv[:3])}", run, check_first))
        tasks.append(Task(f"cli repeat {' '.join(argv[:3])}", run, check_repeat))
    return tasks


WORKLOADS = {
    "cohomology": cohomology,
    "affine-pi1": affine_pi1,
    "knot-coloring": knot_coloring,
    "cli-batch": cli_batch,
}
