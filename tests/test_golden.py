"""Byte-stability of the printed reports.

``tests/golden`` holds input graphs and the exact stdout that
``invariants`` and ``classify --strict`` printed for them before the
invariants were read from a single Smith form; the g >= 2 unit witnesses
are the canonical ones, 0 at every non-tree edge, that replaced the
index-order Smith form's.  Any change to the bytes (witnesses and kernel
bases included) fails here.  It also holds what
``verify`` printed before its classes grew from their parents and its
Smith forms were checked through their logs, and what ``zeta``, the
``--format text`` views and an INDETERMINATE classification printed, with
their exit codes, before the reports became the dicts they print.
"""

from pathlib import Path

import pytest

import graphkt.exact_linalg as linalg_mod
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

# name -> (argv, exit code); argv entries ending in .graph name golden inputs
WITH_EXIT_CODES = {
    **{f"zeta_{g}": (["zeta", f"{g}.graph"], 0)
       for g in ("chain5", "flower1", "flower4", "flower5", "mixed", "theta4")},
    "invariants_flower1_text": (["invariants", "flower1.graph", "--format", "text"], 0),
    "invariants_flower5_text": (["invariants", "flower5.graph", "--format", "text"], 0),
    "classify_strict_flower4_theta4_text": (
        ["classify", "flower4.graph", "theta4.graph", "--strict", "--format", "text"], 0),
    "classify_stable_flower4_theta4_text": (
        ["classify", "flower4.graph", "theta4.graph", "--stable", "--format", "text"], 0),
    # mixed.graph has a pendant vertex, so the strict verdict is INDETERMINATE
    "classify_strict_mixed_flower4": (
        ["classify", "mixed.graph", "flower4.graph", "--strict"], 4),
    "zeta_theta4_text": (["zeta", "theta4.graph", "--format", "text"], 0),
    "verify_n3_m4_text": (
        ["verify", "--max-vertices", "3", "--max-edges", "4", "--format", "text"], 0),
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


@pytest.mark.parametrize("name", sorted(WITH_EXIT_CODES))
def test_output_and_exit_code_match_golden(capsys, name):
    argv, code = WITH_EXIT_CODES[name]
    argv = [str(GOLDEN / a) if a.endswith(".graph") else a for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ((GOLDEN / f"{name}.out").read_text(), "")


def test_reports_never_build_the_witnesses(monkeypatch, capsys):
    # invariants, classify --strict and verify read every invariant by
    # replaying the log on a few vectors; building a 2m x 2m transform there
    # is a regression
    def refuse(self):
        raise AssertionError("a Smith form's x or y was built")

    def refuse_kernel(self):
        raise AssertionError("a Smith form's kernel rows were replayed")

    def refuse_dense(*args):
        raise AssertionError("a report solved or multiplied by the dense 1 - A")

    monkeypatch.setattr(SmithDecomposition, "x", property(refuse))
    monkeypatch.setattr(SmithDecomposition, "y", property(refuse))
    graphs = sorted(GOLDEN.glob("*.graph"))
    assert len(graphs) == 6
    with monkeypatch.context() as mp:
        # invariants reads the kernel off a spanning tree; the Smith route's
        # left kernel is the sweep's and the tests' oracle
        mp.setattr(SmithDecomposition, "left_kernel", property(refuse_kernel))
        # the witness is checked on the successor lists; the index-order
        # solve and its dense product are the sweep's and the tests' oracle
        mp.setattr(linalg_mod, "solve_min_scalar", refuse_dense)
        mp.setattr(linalg_mod, "mat_vec", refuse_dense)
        for path in graphs:
            assert main(["invariants", str(path)]) == 0
        pair = [str(GOLDEN / "flower4.graph"), str(GOLDEN / "theta4.graph")]
        assert main(["classify", *pair, "--strict"]) == 0
    # verify checks each Smith form through its log, not through x and y
    assert main(["verify", "--max-vertices", "3", "--max-edges", "4"]) == 0
    capsys.readouterr()
