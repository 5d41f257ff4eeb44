from graphkt import generate_flower, generate_theta
from graphkt.multigraph import betti_number, is_connected
from graphkt.sweep import (
    SweepConfig,
    canonical_key,
    enumerate_connected,
    random_connected,
    run_sweep,
)


class TestEnumeration:
    def test_all_connected_and_distinct(self):
        graphs = enumerate_connected(3, 4)
        assert all(is_connected(G) for G in graphs)
        keys = [canonical_key(G) for G in graphs]
        assert len(keys) == len(set(keys))

    def test_contains_named_families(self):
        keys = {canonical_key(G) for G in enumerate_connected(3, 4)}
        assert canonical_key(generate_flower(1)) in keys
        assert canonical_key(generate_flower(4)) in keys
        assert canonical_key(generate_theta(2)) in keys

    def test_relabelings_deduplicated(self):
        from graphkt import Multigraph

        a = Multigraph(3, ((0, 1), (1, 2)))
        b = Multigraph(3, ((2, 1), (0, 1)))
        assert canonical_key(a) == canonical_key(b)

    def test_bounds_respected(self):
        for G in enumerate_connected(2, 3):
            assert G.vertex_count <= 2 and len(G.edges) <= 3


class TestRandomMode:
    def test_reproducible(self):
        config = SweepConfig(mode="random", sample_count=30, seed=42, max_edges=8)
        first = random_connected(config)
        second = random_connected(config)
        assert first == second
        assert all(is_connected(G) for G in first)

    def test_seed_changes_sample(self):
        a = random_connected(SweepConfig(mode="random", sample_count=30, seed=1))
        b = random_connected(SweepConfig(mode="random", sample_count=30, seed=2))
        assert a != b


class TestRunSweep:
    def test_small_exhaustive_passes(self):
        report = run_sweep(SweepConfig(max_vertices=3, max_edges=4))
        assert report.ok
        assert report.graphs_checked > 20
        assert report.counts["snf_diagonal"] == sum(
            1
            for G in enumerate_connected(3, 4)
            if betti_number(G) >= 1
        )

    def test_random_mode_passes(self):
        report = run_sweep(SweepConfig(mode="random", sample_count=40, seed=7))
        assert report.ok
        assert report.graphs_checked == 40

    def test_mutant_detected(self, monkeypatch):
        # flipping one entry of the edge matrix must trip the sweep
        import graphkt.sweep as sweep_mod
        from graphkt.edge_operator import edge_matrix as honest

        def lying(G):
            A = honest(G)
            if len(A) >= 2:
                A[0][1] ^= 1
            return A

        monkeypatch.setattr(sweep_mod, "edge_matrix", lying)
        report = run_sweep(SweepConfig(max_vertices=2, max_edges=3), max_failures=1)
        assert not report.ok
        assert report.failures[0].graph_text.startswith("vertices")

    def test_mutant_behind_one_minus_edge_matrix_detected(self, monkeypatch):
        # the same flip where 1 - A is built must trip the Smith-form checks
        import graphkt.edge_operator as edge_mod

        honest = edge_mod.edge_matrix

        def lying(G):
            A = honest(G)
            if len(A) >= 2:
                A[0][1] ^= 1
            return A

        monkeypatch.setattr(edge_mod, "edge_matrix", lying)
        report = run_sweep(SweepConfig(max_vertices=2, max_edges=3), max_failures=1)
        assert not report.ok
        assert report.failures[0].check in ("snf_diagonal", "ktheory_groups")

    def test_theorem_violation_in_check_recorded(self, monkeypatch):
        # a library cross-check that raises inside a check is that check's
        # counterexample; it must not escape the sweep
        import graphkt.edge_operator as edge_mod

        honest = edge_mod.edge_matrix

        def lying(G):
            A = honest(G)
            if len(A) >= 2:
                A[0][1] ^= 1
            return A

        monkeypatch.setattr(edge_mod, "edge_matrix", lying)
        report = run_sweep(SweepConfig(max_vertices=2, max_edges=3))
        failures = {(f.check, f.message) for f in report.failures}
        assert ("cycle_space_lemma", "cycle image must be annihilated by 1 - T") in failures
        assert ("reduction_transcript", "the contraction reduction must end diagonal") in failures
