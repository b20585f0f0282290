"""Span tracing of the toolkit's public functions, for the traced run only.

``Tracer.install`` swaps each function named in ``SPANS`` for a wrapper
that records a span (name, start, end, parent, task id) in memory, in the
defining module and in every ``quandles`` module that imported the same
object; ``Tracer.restore`` puts every original back. Self time (duration
minus the child spans it covers) is charged to the span's metric; the
counts are read from arguments and return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _count(metric, fn=lambda result, args: 1):
    def counter(counts, result, args):
        counts[metric] += fn(result, args)
    return counter


def _cube(result, args):
    return result.size**3


def _colorings(counts, result, args):
    diagram, quandle = args[0], args[1]
    counts["knots.colorings_found"] += len(result)
    counts["knots.candidates"] += quandle.size**diagram.arc_count


# (module, attribute, metric charged with the span's self time, counter)
SPANS = [
    ("core", "affine_quandle", "core.build_s", None),
    ("core", "dihedral_quandle", "core.build_s", None),
    ("core", "AffineQuandle.__init__", "core.build_s",
     _count("core.points_cubed", lambda r, a: a[0].size**3)),
    ("core", "quandle_from_text", "core.load_s", _count("core.points_cubed", _cube)),
    ("core", "load_quandle_file", "core.load_s", None),
    ("core", "from_table", "core.load_s", _count("core.points_cubed", _cube)),
    ("core", "Quandle.is_latin", "core.predicates_s", None),
    ("core", "Quandle.is_connected", "core.predicates_s", None),
    ("core", "Quandle.is_doubly_transitive", "core.predicates_s", None),
    ("core", "Quandle.semiregular_length", "core.predicates_s", None),
    ("core", "Quandle.lmlt", "perms.closure_s", None),
    ("perms", "PermGroup.elements", "perms.closure_s", None),
    ("perms", "closure", "perms.closure_s", _count("perms.closure_elements", lambda r, a: len(r))),
    ("abelian", "tensor_square", "abelian.tensor_s", None),
    ("abelian", "twisted_tensor_relators", "abelian.tensor_s", None),
    ("abelian", "subgroup_generated", "abelian.subgroup_s",
     _count("abelian.subgroup_elements", lambda r, a: r.order)),
    ("abelian", "quotient_invariants", "abelian.snf_s", None),
    ("abelian", "smith_normal_form", "abelian.snf_s", None),
    ("pi1", "pi1_presentation", "pi1.presentation_s", _count("pi1.calls")),
    ("pi1", "pi1_affine", "pi1.presentation_s", None),
    ("pi1", "is_simply_connected_affine", "pi1.presentation_s", None),
    ("cocycles", "CoeffGroup.symmetric", "cocycles.coeff_s", None),
    ("cocycles", "CoeffGroup.abelian", "cocycles.coeff_s", None),
    ("cocycles", "CoeffGroup.from_cayley", "cocycles.coeff_s", None),
    ("cocycles", "CoeffGroup.regular_embedding", "cocycles.coeff_s", None),
    ("cocycles", "CoeffGroup.conjugacy_classes", "cocycles.coeff_s", None),
    ("cocycles", "parse_coeff_descriptor", "cocycles.coeff_s", None),
    ("cocycles", "embed_coeffs", "cocycles.coeff_s", None),
    ("cocycles", "full_partition", "cocycles.partition_s",
     _count("cocycles.partition_blocks", lambda r, a: len(r.blocks))),
    ("cocycles", "normalized_cocycles", "cocycles.search_s",
     _count("cocycles.normalized_found", lambda r, a: len(r))),
    ("cocycles", "cocycle_witness", "cocycles.verify_s", _count("cocycles.verify_calls")),
    ("cocycles", "h2c", "cocycles.bucket_s", _count("cocycles.classes", lambda r, a: len(r))),
    ("cocycles", "cohomologous", "cocycles.cohomologous_s", None),
    ("cocycles", "are_cohomologous", "cocycles.cohomologous_s", None),
    ("cocycles", "normalize", "cocycles.cohomologous_s", None),
    ("coverings", "extend", "coverings.extend_s", None),
    ("coverings", "coverings_equivalent", "coverings.equivalent_s", None),
    ("coverings", "all_congruences", "coverings.congruences_s",
     _count("coverings.congruences_found", lambda r, a: len(r))),
    ("coverings", "is_covering", "coverings.is_covering_s", None),
    ("knots", "parse_gauss", "knots.parse_s", None),
    ("knots", "colorings", "knots.colorings_s", _colorings),
    ("knots", "col_count", "knots.colorings_s", None),
    ("knots", "cocycle_invariant", "knots.invariant_s", None),
    ("cli", "main", "cli.self_s", None),
]

CLI_SUBCOMMANDS = ("check", "h2c", "pi1", "cover", "knot", "orbits")

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    **{m: "s/round" for m in (
        "core.build_s", "core.load_s", "core.predicates_s", "perms.closure_s",
        "abelian.tensor_s", "abelian.subgroup_s", "abelian.snf_s", "pi1.presentation_s",
        "cocycles.coeff_s", "cocycles.partition_s", "cocycles.search_s", "cocycles.verify_s",
        "cocycles.bucket_s", "cocycles.cohomologous_s", "coverings.extend_s",
        "coverings.equivalent_s", "coverings.congruences_s", "coverings.is_covering_s",
        "knots.parse_s", "knots.colorings_s", "knots.invariant_s",
        *(f"cli.{c}_s" for c in CLI_SUBCOMMANDS), "cli.self_s", "bench.self_s",
        "trace.wall_s", "trace.overhead_s")},
    **{m: "count/round" for m in (
        "core.points_cubed", "perms.closure_elements", "abelian.subgroup_elements",
        "pi1.calls", "cocycles.partition_blocks", "cocycles.normalized_found",
        "cocycles.verify_calls", "cocycles.classes", "coverings.congruences_found",
        "knots.colorings_found")},
    "cocycles.classes_per_cocycle": "ratio",
    "knots.colorings_per_candidate": "ratio",
}


class Tracer:
    """In-memory span recorder plus the swap and restore of wrapped functions."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.self_time = defaultdict(float)
        self.inclusive_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.task_id = None
        self.raw_wall = 0.0
        self._restore = []

    # -- spans

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def exit(self, metric, inclusive=None):
        end = time.perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        self.self_time[metric] += duration - child
        if inclusive:
            self.inclusive_time[inclusive] += duration
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        self.spans[index] = (name, start, end, parent, self.task_id)

    def task(self, task_id, fn):
        """Run one benchmark task as a root span; returns (result, seconds)."""
        self.task_id = task_id
        self.enter("bench.task")
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            self.exit("bench.self_s")
        seconds = time.perf_counter() - start
        self.raw_wall += seconds
        return result, seconds

    # -- wrappers

    def _wrap(self, fn, name, metric, counter):
        tracer = self

        if name == "cli.main":
            @functools.wraps(fn)
            def wrapper(argv=None):
                sub = next((a for a in argv if not a.startswith("-")), "")
                tracer.enter(name)
                try:
                    return fn(argv)
                finally:
                    tracer.exit(metric, f"cli.{sub}_s")
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(metric)
            if counter is not None:
                counter(tracer.counts, result, args)
            return result
        return wrapper

    def install(self, package):
        modules = [package] + [
            m for key, m in sys.modules.items() if key.startswith(package.__name__ + ".")
        ]
        try:
            for module_name, attr, metric, counter in SPANS:
                module = sys.modules[f"{package.__name__}.{module_name}"]
                name = f"{module_name}.{attr}"
                if "." in attr:
                    self._install_member(module, attr, name, metric, counter)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, name, metric, counter)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def _install_member(self, module, attr, name, metric, counter):
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[member]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, metric, counter))
        elif isinstance(raw, property):
            fget = raw.fget
            tracer = self

            # the one wrapped property, Quandle.is_latin, caches in
            # ``_latin``; only its first, computing access is a span, so the
            # hot internal lookups (every right division) stay unwrapped
            def getter(obj):
                if obj._latin is not None:
                    return obj._latin
                tracer.enter(name)
                try:
                    return fget(obj)
                finally:
                    tracer.exit(metric)
            new = property(getter)
        else:
            new = self._wrap(raw, name, metric, counter)
        self._restore.append((cls, member, raw))
        setattr(cls, member, new)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results

    def layer_metrics(self, traced, plain):
        """Per-round self times and counts for every metric in LAYER_METRICS.

        ``traced`` and ``plain`` are the normalized task durations of the
        traced and untraced rounds; self times are scaled by the same
        normalization as the traced rounds' total.
        """
        rounds = len(traced)
        traced_wall = sum(map(sum, traced))
        scale = traced_wall / self.raw_wall if self.raw_wall else 0.0
        values = {m: 0.0 for m in LAYER_METRICS}
        for metric, seconds in [*self.self_time.items(), *self.inclusive_time.items()]:
            values[metric] = seconds * scale
        for metric, count in self.counts.items():
            if metric in values:
                values[metric] = count
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - sum(map(sum, plain))
        out = {m: v / rounds for m, v in values.items()}
        found = self.counts["cocycles.normalized_found"]
        out["cocycles.classes_per_cocycle"] = self.counts["cocycles.classes"] / found if found else 0.0
        candidates = self.counts["knots.candidates"]
        out["knots.colorings_per_candidate"] = (
            self.counts["knots.colorings_found"] / candidates if candidates else 0.0
        )
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, task_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, task_id]) + "\n")
