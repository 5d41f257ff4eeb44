from collections import defaultdict
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt import Multigraph, generate_flower, generate_theta
from graphkt.multigraph import betti_number, is_connected, valences
from graphkt.sweep import (
    SweepConfig,
    canonical_key,
    enumerate_connected,
    random_connected,
    run_sweep,
)

from .strategies import connected_multigraphs


def brute_canonical_key(G):
    """The oracle for canonical_key: the minimum over all n! vertex
    relabellings of the sorted edge multiset."""
    n = G.vertex_count
    best = None
    for perm in permutations(range(n)):
        edges = sorted(
            (perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u])
            for u, v in G.edges
        )
        key = tuple(edges)
        if best is None or key < best:
            best = key
    return (n, best)


def connected_multisets(max_vertices, max_edges):
    """Every connected edge multiset within the bounds, in the order
    enumerate_connected generates them."""
    for n in range(1, max_vertices + 1):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(max(n - 1, 0), max_edges + 1):
            for combo in combinations_with_replacement(slots, m):
                G = Multigraph(n, combo)
                if is_connected(G):
                    yield G


def brute_enumerate(max_vertices, max_edges):
    seen = set()
    out = []
    for G in connected_multisets(max_vertices, max_edges):
        key = brute_canonical_key(G)
        if key not in seen:
            seen.add(key)
            out.append(G)
    return out


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

    def test_same_list_as_brute_force(self):
        assert enumerate_connected(4, 6) == brute_enumerate(4, 6)

    @pytest.mark.parametrize(
        "max_vertices, max_edges, classes",
        [(4, 6, 283), (5, 6, 405), pytest.param(5, 7, 1177, marks=pytest.mark.slow)],
    )
    def test_class_counts(self, max_vertices, max_edges, classes):
        assert len(enumerate_connected(max_vertices, max_edges)) == classes

    def test_no_two_classes_isomorphic_under_networkx(self):
        nx = pytest.importorskip("networkx")
        buckets = defaultdict(list)  # only graphs with equal m and valences can be isomorphic
        for G in enumerate_connected(4, 6):
            H = nx.MultiGraph()
            H.add_nodes_from(range(G.vertex_count))
            H.add_edges_from(G.edges)
            buckets[len(G.edges), tuple(sorted(valences(G)))].append(H)
        for bucket in buckets.values():
            for a, b in combinations(bucket, 2):
                assert not nx.is_isomorphic(a, b)


class TestCanonicalKey:
    def test_equal_exactly_when_brute_keys_equal(self):
        pairs = {(canonical_key(G), brute_canonical_key(G)) for G in connected_multisets(4, 5)}
        refined = {key for key, _ in pairs}
        brute = {key for _, key in pairs}
        assert len(pairs) == len(refined) == len(brute)

    @settings(max_examples=150, deadline=None)
    @given(connected_multigraphs(max_vertices=6, max_edges=8), st.data())
    def test_invariant_under_relabelling(self, G, data):
        perm = data.draw(st.permutations(range(G.vertex_count)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(G.edges), max_size=len(G.edges)))
        edges = [
            (perm[v], perm[u]) if flip else (perm[u], perm[v])
            for (u, v), flip in zip(G.edges, flips)
        ]
        shuffled = data.draw(st.permutations(edges))
        assert canonical_key(Multigraph(G.vertex_count, tuple(shuffled))) == canonical_key(G)

    def test_regular_graph_with_one_cell(self):
        # the 5-cycle refines to a single cell, so all 120 labellings are tried
        cycle = Multigraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
        other = Multigraph(5, ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0)))
        assert canonical_key(cycle) == canonical_key(other)
        assert canonical_key(cycle)[2] == brute_canonical_key(cycle)[1]


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

    def test_zeta_mismatch_fails_bass_identity_first(self, monkeypatch):
        # the sweep's Bass check goes through zeta_report, which raises on
        # an edge/vertex mismatch; that must be recorded as bass_identity
        import graphkt.ihara_zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "ihara_rhs", lambda G: [1])
        report = run_sweep(SweepConfig(max_vertices=2, max_edges=3), max_failures=1)
        assert report.failures[0].check == "bass_identity"
        assert report.failures[0].message == "edge and vertex zeta polynomials disagree"

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
