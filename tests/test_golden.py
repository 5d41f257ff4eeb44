"""Byte-stability of the printed reports.

``tests/golden`` holds input graphs and the exact stdout that
``invariants`` and ``classify --strict`` printed for them before the
invariants were read from a single Smith form.  Any change to the bytes
(witnesses and kernel bases included) fails here.
"""

from pathlib import Path

import pytest

from graphkt.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "invariants_flower1": ["invariants", "flower1.graph"],
    "invariants_flower5": ["invariants", "flower5.graph"],
    "invariants_theta4": ["invariants", "theta4.graph"],
    "invariants_chain5": ["invariants", "chain5.graph"],
    "invariants_mixed": ["invariants", "mixed.graph"],
    "classify_strict_flower4_theta4": [
        "classify",
        "flower4.graph",
        "theta4.graph",
        "--strict",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    argv = [str(GOLDEN / a) if a.endswith(".graph") else a for a in CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
