"""The README's Library example runs and gives the values its comments state."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_values() -> dict[str, object]:
    """Run the code block under '## Library'; map each bare expression to its value."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace: dict[str, object] = {}
    values = {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expr = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(code, node)] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_library_example_values():
    values = library_values()
    assert values["image_sup(K)"] == Fraction(6, 7)
    assert values["image_cylinder(K, (2, 1)).length"] == Fraction(1, 14)
    finite = values["minkowski_finite(cf_from_rational(2, 3))"]
    assert finite == Fraction(3, 4) and isinstance(finite, Fraction)
    moran = values["float(moran_root(DigitSet(range(1, 10))).s)"]
    assert repr(moran).startswith("0.99857786255")
    assert abs(values["preservation_verdict(9).gap"] - 0.01313) < 5e-6
    assert 0 < values["estimate_series(K, [8], Side.DOMAIN)[0].s_hat"] < 1
