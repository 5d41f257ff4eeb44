"""Every exported name resolves: each entry of a package module's
``__all__`` and each name the package's ``__init__`` imports from its
modules.  A record or function deleted without its export fails here."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphkt"


def _exports():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = "graphkt" if path.stem == "__init__" else f"graphkt.{path.stem}"
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                yield from ((module, n) for n in ast.literal_eval(node.value))
            elif path.stem == "__init__" and isinstance(node, ast.ImportFrom) and node.level == 1:
                yield from ((f"graphkt.{node.module}", a.name) for a in node.names)


def test_every_export_resolves():
    exports = list(_exports())
    stale = [
        f"{module}.{name}"
        for module, name in exports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert len({module for module, _ in exports}) >= 7
    assert not stale
