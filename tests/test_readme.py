"""The README's Library tour runs, and gives the values its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_tour():
    """Run the tour's python block statement by statement; return its
    namespace and the value of each bare expression, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_library_tour_values():
    namespace, values = run_tour()
    reps = namespace["reps"]
    assert len(reps) == 2 and reps[0].is_trivial() and not reps[1].is_trivial()
    flags, pi1, equivalent, colorings, invariant = values
    assert flags == (True, True, 6)
    assert pi1 == (2,)
    assert equivalent is False
    assert colorings == 12
    assert invariant == ("(1)",) * 12
