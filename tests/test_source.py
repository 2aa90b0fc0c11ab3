import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geomgraph"


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every invariant the package
    # checks must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
