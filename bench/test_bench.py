"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from functools import partial

import pytest

import corpus
import oracle
import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def cli():
    return run.import_graphkt()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_files(workload, tmp_path):
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / name
        directory.mkdir()
        commands, files = corpus.build(workload, seed, directory)
        corpus.write(files)
        runs[name] = (_files(directory), [c.argv[0] for c in commands])
    assert runs["a"] == runs["b"]
    if workload != "verify-exhaustive":  # its input is fixed by the bounds
        assert runs["a"][0] != runs["c"][0]


def _small_commands(tmp_path):
    rng = random.Random(0)
    graphs = [corpus.random_connected(rng, 6, 12), corpus.chain(3), corpus.flower(2)]
    commands, files = [], {}
    for i, graph in enumerate(graphs):
        path = corpus.add_file(files, tmp_path, f"g{i}.graph", graph)
        commands.append(corpus.Command(f"inv{i}", ["invariants", path], 1,
                                       partial(oracle.check_invariants, graph)))
        commands.append(corpus.Command(f"zeta{i}", ["zeta", path], 1,
                                       partial(oracle.check_zeta, graph)))
    for g in (4, 5):
        pair = [corpus.flower(g), corpus.theta(g, rng)]
        paths = [corpus.add_file(files, tmp_path, f"p{g}{side}.graph", G) for side, G in zip("ab", pair)]
        commands.append(corpus.Command(f"cls{g}", ["classify", *paths, "--strict"], 2,
                                       partial(oracle.check_classify, pair)))
    commands.append(corpus.Command("verify", ["verify", "--max-vertices", "3", "--max-edges", "3"],
                                   0, lambda code, out: None))
    corpus.write(files)
    return commands


def _run_pass(caller):
    for index in range(len(caller.commands)):
        caller.call(index)


def _outputs(caller):
    _run_pass(caller)
    return [stdout for _, stdout, _ in caller.first_output]


def test_oracle_accepts_graphkt_outputs(cli, tmp_path):
    caller = run.Caller(cli, _small_commands(tmp_path))
    _run_pass(caller)
    assert (caller.attempted, caller.failed) == (len(caller.commands), 0)


def _corrupt(check, stdout, edit):
    report = json.loads(stdout)
    edit(report)
    with pytest.raises(oracle.Mismatch):
        check(0, json.dumps(report))


def test_oracle_rejects_corrupted_outputs(cli, tmp_path):
    commands = _small_commands(tmp_path)
    stdout = _outputs(run.Caller(cli, commands))
    inv, zeta, cls = commands[0], commands[1], commands[7]

    def bump(key, delta=1):
        return lambda r: r.__setitem__(key, r[key] + delta)

    _corrupt(inv.check, stdout[0], bump("unit_order"))
    _corrupt(inv.check, stdout[0], lambda r: r["witnesses"]["unit_preimage"].__setitem__(
        0, r["witnesses"]["unit_preimage"][0] + 1))
    _corrupt(inv.check, stdout[0], lambda r: r["k1_basis"][-1].__setitem__(
        -1, r["k1_basis"][-1][-1] + 1))
    _corrupt(inv.check, stdout[0], lambda r: r["k0"]["torsion"].append(2))
    _corrupt(inv.check, stdout[0], lambda r: r["simplicity"].__setitem__(
        "irreducible", not r["simplicity"]["irreducible"]))
    _corrupt(zeta.check, stdout[1], bump("ord_at_one"))

    def perturb_poly(r):
        r["edge_poly"][1] += 1
        r["vertex_poly"] = r["edge_poly"]

    _corrupt(zeta.check, stdout[1], perturb_poly)
    _corrupt(cls.check, stdout[7], lambda r: r.__setitem__("verdict", "ISOMORPHIC"))
    _corrupt(cls.check, stdout[7], lambda r: r["unit_orders"].reverse())
    with pytest.raises(oracle.Mismatch):
        inv.check(3, stdout[0])
    ok = {"ok": True, "failures": [], "graphs_checked": 405,
          "checks": {name: 1 for name in oracle.CHECK_NAMES}}
    oracle.check_verify(405, 0, json.dumps(ok))
    with pytest.raises(oracle.Mismatch):
        oracle.check_verify(405, 0, json.dumps(dict(ok, graphs_checked=404)))


def test_traced_stdout_is_identical(cli, tmp_path):
    commands = _small_commands(tmp_path)
    plain = _outputs(run.Caller(cli, commands))
    sweep = sys.modules["graphkt.sweep"]
    original_checks = list(sweep.CHECKS)
    original_snf = sweep.smith_normal_form
    tracer = Tracer()
    tracer.install()
    try:
        assert sweep.smith_normal_form is not original_snf
        traced = _outputs(run.Caller(cli, commands))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sweep.CHECKS == original_checks and sweep.smith_normal_form is original_snf
    layers = tracer.summary()
    assert layers["cli"]["calls"] == len(commands)
    assert layers["sweep.check.bass_identity"]["applied"] > 0
    assert layers["exact_linalg.smith_normal_form"]["ops"] > 0
    assert all(row["self_s"] >= 0 for row in layers.values())


def test_traced_counts_repeat(cli, tmp_path):
    commands = _small_commands(tmp_path)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            _run_pass(run.Caller(cli, commands))
        finally:
            tracer.uninstall()
        counts.append({
            (name, q): v for name, row in tracer.summary().items()
            for q, v in row.items() if q not in ("s", "self_s")
        })
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zeta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
