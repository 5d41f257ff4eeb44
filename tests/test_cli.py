import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphkt import format_graph, generate_flower, generate_theta, parse_graph
from graphkt.cli import _json, main
from graphkt.errors import TheoremViolation


@pytest.fixture
def flower3(tmp_path):
    path = tmp_path / "flower3.graph"
    path.write_text(format_graph(generate_flower(3)))
    return str(path)


@pytest.fixture
def theta3(tmp_path):
    path = tmp_path / "theta3.graph"
    path.write_text(format_graph(generate_theta(3)))
    return str(path)


@pytest.fixture
def tree(tmp_path):
    path = tmp_path / "tree.graph"
    path.write_text("vertices 3\nedge 0 1\nedge 1 2\n")
    return str(path)


@pytest.fixture
def pendant(tmp_path):
    path = tmp_path / "pendant.graph"
    path.write_text("vertices 2\nedge 0 0\nedge 0 0\nedge 0 1\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestInvariants:
    def test_flower3(self, capsys, flower3):
        code, payload = run_json(capsys, ["invariants", flower3])
        assert code == 0
        assert payload["g"] == 3
        assert payload["k0"] == {"rank": 3, "torsion": [2]}
        assert payload["unit_order"] == 2
        assert payload["simplicity"]["simple_claim_applicable"] is True

    def test_tree_exits_2(self, capsys, tree):
        assert main(["invariants", tree]) == 2
        assert "g >= 1 required" in capsys.readouterr().err

    def test_theta3_unit_order(self, capsys, theta3):
        code, payload = run_json(capsys, ["invariants", theta3])
        assert code == 0 and payload["unit_order"] == 1

    def test_missing_file(self, capsys, tmp_path):
        assert main(["invariants", str(tmp_path / "nope.graph")]) == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertices 2\nedge 0 5\n")
        assert main(["invariants", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_byte_stable(self, capsys, flower3):
        main(["invariants", flower3])
        first = capsys.readouterr().out
        main(["invariants", flower3])
        assert capsys.readouterr().out == first

    def test_text_format(self, capsys, flower3):
        assert main(["invariants", flower3, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "g: 3" in out and "k0.rank: 3" in out

    def test_theorem_violation_exits_3(self, capsys, flower3, monkeypatch):
        import graphkt.cli as cli_mod

        def boom(G):
            raise TheoremViolation("forced")

        monkeypatch.setattr(cli_mod, "ktheory_report", boom)
        assert main(["invariants", flower3]) == 3

    def test_forced_mismatch_exits_3_under_optimize(self, flower3):
        # the transposed cross-check disagrees with the main reduction; the
        # mismatch must not rest on an assert that python -O strips
        script = textwrap.dedent(
            f"""
            import sys
            import graphkt.ktheory
            from graphkt.cli import main
            from graphkt.exact_linalg import AbelianGroup

            assert False, "this script must run under python -O"
            graphkt.ktheory.cokernel = lambda M: AbelianGroup(0)
            sys.exit(main(["invariants", {flower3!r}]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr
        assert "theorem violation: cokernel" in proc.stderr


class TestClassify:
    def test_stable_equivalent(self, capsys, flower3, theta3):
        code, payload = run_json(capsys, ["classify", flower3, theta3, "--stable"])
        assert code == 0 and payload["verdict"] == "EQUIVALENT"

    def test_strict_not_isomorphic(self, capsys, flower3, theta3):
        code, payload = run_json(capsys, ["classify", flower3, theta3, "--strict"])
        assert code == 0
        assert payload["verdict"] == "NOT_ISOMORPHIC"
        assert payload["unit_orders"] == [2, 1]

    def test_strict_reflexive(self, capsys, flower3):
        code, payload = run_json(capsys, ["classify", flower3, flower3, "--strict"])
        assert code == 0 and payload["verdict"] == "ISOMORPHIC"

    def test_indeterminate_exits_4(self, capsys, pendant, tmp_path):
        other = tmp_path / "flower2.graph"
        other.write_text(format_graph(generate_flower(2)))
        code, payload = run_json(
            capsys, ["classify", pendant, str(other), "--strict"]
        )
        assert code == 4 and payload["verdict"] == "INDETERMINATE"

    def test_low_genus_exits_2(self, capsys, tmp_path, flower3):
        small = tmp_path / "loop.graph"
        small.write_text("vertices 1\nedge 0 0\n")
        assert main(["classify", str(small), flower3, "--stable"]) == 2

    @pytest.mark.parametrize("mode", ["--stable", "--strict"])
    def test_forced_mismatch_exits_3_under_optimize(self, flower3, theta3, mode):
        # both modes take the route of invariants, transposed cross-check included
        script = textwrap.dedent(
            f"""
            import sys
            import graphkt.ktheory
            from graphkt.cli import main
            from graphkt.exact_linalg import AbelianGroup

            assert False, "this script must run under python -O"
            graphkt.ktheory.cokernel = lambda M: AbelianGroup(0)
            sys.exit(main(["classify", {flower3!r}, {theta3!r}, {mode!r}]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr
        assert "theorem violation: cokernel" in proc.stderr


class TestZeta:
    def test_flower2(self, capsys, tmp_path):
        path = tmp_path / "flower2.graph"
        path.write_text(format_graph(generate_flower(2)))
        code, payload = run_json(capsys, ["zeta", str(path)])
        assert code == 0
        assert payload["identity_holds"] is True
        assert payload["ord_at_one"] == 2

    def test_cycle(self, capsys, tmp_path):
        path = tmp_path / "c3.graph"
        path.write_text("vertices 3\nedge 0 1\nedge 1 2\nedge 2 0\n")
        code, payload = run_json(capsys, ["zeta", str(path)])
        assert code == 0 and payload["g"] == 1 and payload["ord_at_one"] == 2

    def test_tree_exits_2(self, capsys, tree):
        assert main(["zeta", tree]) == 2

    def test_mismatch_exits_3(self, capsys, flower3, monkeypatch):
        import graphkt.ihara_zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "ihara_rhs", lambda G: [1])
        assert main(["zeta", flower3]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theorem violation: edge and vertex zeta" in captured.err

    def test_wrong_companion_entry_exits_3(self, capsys, theta3, monkeypatch):
        # one valence off by one is one wrong entry 1 - val[0] of the
        # companion matrix L; the vertex side then disagrees with the edge side
        import graphkt.ihara_zeta as zeta_mod

        honest = zeta_mod.valences
        monkeypatch.setattr(zeta_mod, "valences", lambda G: [honest(G)[0] + 1] + honest(G)[1:])
        assert main(["zeta", theta3]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "theorem violation: edge and vertex zeta polynomials disagree\n"

    def test_forced_mismatch_exits_3_under_optimize(self, flower3):
        # the vertex side disagrees with the edge side; the mismatch must
        # not rest on an assert that python -O strips
        script = textwrap.dedent(
            f"""
            import sys
            import graphkt.ihara_zeta
            from graphkt.cli import main

            assert False, "this script must run under python -O"
            graphkt.ihara_zeta.ihara_rhs = lambda G: [1]
            sys.exit(main(["zeta", {flower3!r}]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr
        assert "theorem violation: edge and vertex zeta" in proc.stderr


class TestGenerate:
    def test_flower_to_stdout(self, capsys):
        assert main(["generate", "flower", "4"]) == 0
        G = parse_graph(capsys.readouterr().out)
        assert G.vertex_count == 1 and len(G.edges) == 4

    def test_chain_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "chain5.graph"
        assert main(["generate", "chain", "5", "--out", str(out)]) == 0
        G = parse_graph(out.read_text())
        assert G.vertex_count == 8

    def test_theta(self, capsys):
        assert main(["generate", "theta", "2"]) == 0
        G = parse_graph(capsys.readouterr().out)
        assert G.vertex_count == 2 and len(G.edges) == 3

    def test_json_format(self, capsys):
        assert main(["generate", "flower", "2", "--format", "json"]) == 0
        G = parse_graph(capsys.readouterr().out)
        assert G == generate_flower(2)

    def test_bad_parameter_exits_2(self, capsys):
        assert main(["generate", "chain", "1"]) == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.graph"
        assert main(["generate", "flower", "2", "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {target}: ")


class TestVerify:
    def test_small_sweep(self, capsys):
        code, payload = run_json(
            capsys, ["verify", "--max-vertices", "3", "--max-edges", "4"]
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["graphs_checked"] > 20

    def test_random_mode(self, capsys):
        code, payload = run_json(
            capsys,
            ["verify", "--random", "--samples", "25", "--seed", "42", "--max-edges", "6"],
        )
        assert code == 0 and payload["graphs_checked"] == 25

    @pytest.mark.parametrize("bound", [["--max-edges", "0"], ["--max-vertices", "0"]])
    def test_empty_random_bounds_exit_2(self, capsys, bound):
        assert main(["verify", "--random", *bound]) == 2
        assert "error: bounds admit no connected graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds",
        [["--max-vertices", "0"], ["--max-edges", "-1"],
         ["--random", "--samples", "0"], ["--random", "--samples", "-5"]],
    )
    def test_bounds_admitting_no_graph_exit_2(self, capsys, bounds):
        # a sweep that checks nothing must not report ok
        assert main(["verify", *bounds]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_counterexample_exits_5(self, capsys, monkeypatch):
        import graphkt.sweep as sweep_mod
        from graphkt.edge_operator import edge_matrix as honest

        def lying(G):
            A = honest(G)
            if len(A) >= 2:
                A[0][1] ^= 1
            return A

        monkeypatch.setattr(sweep_mod, "edge_matrix", lying)
        code = main(["verify", "--max-vertices", "2", "--max-edges", "2"])
        assert code == 5
        assert "counterexample" in capsys.readouterr().err

    def test_wrong_vertex_determinant_exits_5(self, capsys, monkeypatch):
        # zeta computes both sides without a determinant; the sweep's Bass
        # check compares its vertex side with Bareiss determinants
        # interpolated, and each of those off by one adds 1 to the constant term
        import graphkt.exact_linalg as linalg_mod

        honest, calls = linalg_mod.determinant, []

        def off_by_one(M):
            calls.append(M)
            return honest(M) + 1

        monkeypatch.setattr(linalg_mod, "determinant", off_by_one)
        code, payload = run_json(capsys, ["verify", "--max-vertices", "2", "--max-edges", "3"])
        assert code == 5 and calls
        failures = {(f["check"], f["message"]) for f in payload["failures"]}
        assert failures == {("bass_identity", "vertex side must match its Bareiss determinants")}
        assert payload["checks"]["bass_identity"] == 0  # no graph with g >= 1 passes

    def test_theorem_violation_in_check_exits_5(self, capsys, monkeypatch):
        import graphkt.edge_operator as edge_mod

        honest = edge_mod.edge_matrix

        def lying(G):
            A = honest(G)
            if len(A) >= 2:
                A[0][1] ^= 1
            return A

        monkeypatch.setattr(edge_mod, "edge_matrix", lying)
        code, payload = run_json(capsys, ["verify", "--max-vertices", "2", "--max-edges", "3"])
        assert code == 5
        cycle = [f for f in payload["failures"] if f["check"] == "cycle_space_lemma"]
        assert cycle and cycle[0]["graph"].startswith("vertices")


@pytest.mark.parametrize(
    "command",
    [["invariants", "{p}"], ["zeta", "{p}"], ["classify", "{p}", "{p}", "--stable"],
     ["classify", "{p}", "{p}", "--strict"]],
)
def test_huge_vertex_count_refused_before_allocation(tmp_path, command):
    # a graph with fewer than |V| - 1 edges is refused before anything is
    # built per vertex; the address-space limit turns a per-vertex
    # allocation into a MemoryError instead of exhausting the host
    import resource

    path = tmp_path / "huge.graph"
    path.write_text("vertices 1000000000\nedge 0 1\n")
    limit = 1 << 30

    proc = subprocess.run(
        [sys.executable, "-m", "graphkt"] + [arg.format(p=path) for arg in command],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: graph must be connected\n"


@pytest.mark.parametrize(
    "command",
    [["invariants", "{p}"], ["zeta", "{p}"], ["classify", "{p}", "{p}", "--stable"],
     ["classify", "{p}", "{p}", "--strict"]],
)
def test_disconnected_input_exits_2(capsys, tmp_path, command):
    # enough edges for a spanning tree, so union-find, not the edge count,
    # must find the two components; Multigraph caches its answer
    path = tmp_path / "two_flowers.graph"
    path.write_text("vertices 2\nedge 0 0\nedge 0 0\nedge 1 1\nedge 1 1\n")
    assert main([arg.format(p=path) for arg in command]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: graph must be connected\n"


@pytest.mark.parametrize("command", ["invariants", "zeta"])
def test_edge_count_above_limit_refused_before_allocation(tmp_path, command):
    # one more edge than MAX_EDGES: a dense 2m x 2m matrix would not fit
    # in the 1 GB address space, so only the refusal can exit cleanly
    import resource

    from graphkt.edge_operator import MAX_EDGES

    path = tmp_path / "big.graph"
    path.write_text(format_graph(generate_flower(MAX_EDGES + 1)))
    limit = 1 << 30

    proc = subprocess.run(
        [sys.executable, "-m", "graphkt", command, str(path)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: {MAX_EDGES + 1} edges exceed the dense edge operator's limit of {MAX_EDGES}\n"
    )


def test_module_entry_point(tmp_path):
    path = tmp_path / "flower2.graph"
    path.write_text(format_graph(generate_flower(2)))
    proc = subprocess.run(
        [sys.executable, "-m", "graphkt", "invariants", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["g"] == 2


def test_parser_built_once():
    from graphkt.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_one_process_matches_separate_processes(capsys, flower3):
    # the parser is shared between calls in one process; invariants, zeta
    # and a bad argument must print and exit as three fresh processes do
    argvs = [["invariants", flower3], ["zeta", flower3], ["zeta", flower3, "--bogus"]]
    shared = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        shared.append((code, captured.out, captured.err))
    separate = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "graphkt"] + argv, capture_output=True, text=True
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert shared == separate
    assert [code for code, _, _ in shared] == [0, 0, 2]


def _dumps(payload):
    # the encoder _json replaces
    return json.dumps(payload, indent=2, sort_keys=True)


def test_json_writer_matches_json_dumps_on_golden_payloads():
    payloads = []
    for path in sorted((Path(__file__).parent / "golden").glob("*.out")):
        try:
            payloads.append(json.loads(path.read_text(encoding="utf-8")))
        except json.JSONDecodeError:  # a --format text view
            continue
    assert len(payloads) >= 15
    for payload in payloads:
        assert _json(payload) == _dumps(payload)
    assert _json({"t": (1, (2, [])), "e": {}}) == _dumps({"t": (1, (2, [])), "e": {}})


_LEAVES = st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.text()


@given(st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=25))
@example({"line\nbreak": ["é\n\u2603", True, None, -(2**70)], "": [[], {}, 0, False]})
def test_json_writer_matches_json_dumps(payload):
    assert _json(payload) == _dumps(payload)
