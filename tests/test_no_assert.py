"""Theorem cross-checks must raise TheoremViolation under every interpreter
flag; ``python -O`` strips ``assert`` statements, so the package has none."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphkt"


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert not found
