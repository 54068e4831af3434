"""Guards on the library's source text."""

import ast
from pathlib import Path

import proxcert


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one;
    # the library raises InvariantViolation or ValueError instead
    modules = sorted(Path(proxcert.__file__).parent.rglob("*.py"))
    assert len(modules) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
