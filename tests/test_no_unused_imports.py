"""A module of the package imports only names it uses: an import that
outlives the code that needed it hides what the module really depends on.
``__init__`` is exempt, since its imports are the package's exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphkt"


def unused_imports(source):
    """Names that source binds by an import but never reads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detects_an_unused_import():
    source = "import os, sys\nfrom math import gcd, lcm as l\nprint(sys.argv, l)\n"
    assert unused_imports(source) == ["gcd", "os"]


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    found = {
        path.name: names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert len(modules) >= 8
    assert not found
