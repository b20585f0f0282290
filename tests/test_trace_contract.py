"""Every span the benchmark tracer wraps must name a live toolkit function.

``bench/tracing.py`` is read as text and executed in a private namespace, so
nothing under ``bench/`` is imported or written. A refactor that renames or
deletes a traced name fails here, not only in a traced benchmark run.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_spans():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["SPANS"]


def test_every_traced_name_resolves():
    spans = load_spans()
    assert spans
    for module_name, attr, _, _ in spans:
        module = importlib.import_module(f"quandles.{module_name}")
        if "." in attr:
            # the tracer swaps the member in the class's own namespace
            cls_name, member = attr.split(".")
            assert member in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
