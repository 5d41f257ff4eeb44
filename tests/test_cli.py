import json
import subprocess
import sys
import textwrap

import pytest

from graphkt import format_graph, generate_flower, generate_theta, parse_graph
from graphkt.cli import main
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
