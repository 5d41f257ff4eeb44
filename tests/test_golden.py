"""Byte-stability of the printed reports.

``tests/golden`` holds input graphs and the exact stdout that
``invariants`` and ``classify --strict`` printed for them before the
invariants were read from a single Smith form.  Any change to the bytes
(witnesses and kernel bases included) fails here.  It also holds what
``verify`` printed before its classes grew from their parents and its
Smith forms were checked through their logs.
"""

from pathlib import Path

import pytest

from graphkt.cli import main
from graphkt.exact_linalg import SmithDecomposition

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

VERIFY_CASES = {
    "verify_defaults": ["verify"],
    "verify_n5_m6": ["verify", "--max-vertices", "5", "--max-edges", "6"],
    "verify_random_s25_seed42": ["verify", "--random", "--samples", "25", "--seed", "42"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    argv = [str(GOLDEN / a) if a.endswith(".graph") else a for a in CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_stdout_matches_golden(capsys, name):
    assert main(VERIFY_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_reports_never_build_the_witnesses(monkeypatch, capsys):
    # invariants, classify --strict and verify read every invariant by
    # replaying the log on a few vectors; building a 2m x 2m transform there
    # is a regression
    def refuse(self):
        raise AssertionError("a Smith form's x or y was built")

    monkeypatch.setattr(SmithDecomposition, "x", property(refuse))
    monkeypatch.setattr(SmithDecomposition, "y", property(refuse))
    graphs = sorted(GOLDEN.glob("*.graph"))
    assert len(graphs) == 6
    for path in graphs:
        assert main(["invariants", str(path)]) == 0
    pair = [str(GOLDEN / "flower4.graph"), str(GOLDEN / "theta4.graph")]
    assert main(["classify", *pair, "--strict"]) == 0
    # verify checks each Smith form through its log, not through x and y
    assert main(["verify", "--max-vertices", "3", "--max-edges", "4"]) == 0
    capsys.readouterr()
