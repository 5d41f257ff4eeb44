from collections import defaultdict
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt import DomainError, Multigraph, format_graph, generate_flower, generate_theta
from graphkt.exact_linalg import SmithDecomposition
from graphkt.multigraph import betti_number, edges_connect, is_connected, valences
from graphkt.sweep import (
    CheckFailed,
    GraphChecks,
    SweepConfig,
    canonical_key,
    check_edge_matrix_structure,
    check_snf_diagonal,
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


def walk_enumerate(max_vertices, max_edges):
    """The oracle for enumerate_connected, kept as its body was before the
    classes grew from their parents: walk every connected edge multiset and
    keep the first of each class."""
    seen = set()
    out = []
    for n in range(1, max_vertices + 1):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(max(n - 1, 0), max_edges + 1):
            for combo in combinations_with_replacement(slots, m):
                if not edges_connect(n, combo):
                    continue
                G = Multigraph(n, combo)
                key = canonical_key(G)
                if key in seen:
                    continue
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
        assert sorted(map(canonical_key, enumerate_connected(4, 6))) == sorted(
            map(canonical_key, brute_enumerate(4, 6))
        )

    def test_each_class_keeps_its_canonical_labelling(self):
        # so (n, edges) is the class's key, and the list in (n, m, edges)
        # order puts every class after the classes of its contractions
        graphs = enumerate_connected(5, 6)
        assert all(canonical_key(G) == (G.vertex_count, G.edges) for G in graphs)
        order = [(G.vertex_count, len(G.edges), G.edges) for G in graphs]
        assert order == sorted(order)

    @pytest.mark.parametrize(
        "max_vertices, max_edges, classes",
        [
            (4, 6, 283),
            (5, 6, 405),
            (6, 8, 5081),
            pytest.param(5, 7, 1177, marks=pytest.mark.slow),
            pytest.param(7, 8, 6091, marks=pytest.mark.slow),
        ],
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


class TestGrowthFromParents:
    @pytest.mark.parametrize(
        "max_vertices, max_edges",
        [(5, 6), pytest.param(5, 7, marks=pytest.mark.slow)],
    )
    def test_same_list_as_the_walk(self, max_vertices, max_edges):
        assert [canonical_key(G) for G in enumerate_connected(max_vertices, max_edges)] == sorted(
            (canonical_key(G) for G in walk_enumerate(max_vertices, max_edges)),
            key=lambda key: (key[0], len(key[1]), key[1]),
        )

    @pytest.mark.slow
    def test_class_count_at_six_vertices_seven_edges(self):
        assert len(enumerate_connected(6, 7)) == 1530

    @pytest.mark.parametrize("bounds", [(0, 3), (3, -1), (1, 0), (2, 0)])
    def test_degenerate_bounds_match_the_walk(self, bounds):
        assert enumerate_connected(*bounds) == walk_enumerate(*bounds)


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
        assert canonical_key(cycle)[1] == brute_canonical_key(cycle)[1]


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
        assert report["ok"]
        assert report["graphs_checked"] > 20
        assert report["checks"]["snf_diagonal"] == sum(
            1
            for G in enumerate_connected(3, 4)
            if betti_number(G) >= 1
        )

    def test_connectivity_proved_once_per_graph(self, monkeypatch):
        # the checks ask whether each graph is connected many times over;
        # Multigraph caches the answer, so union-find runs once per graph
        import graphkt.multigraph as graph_mod

        honest, proved = graph_mod.edges_connect, []

        def counted(n, edges):
            proved.append(edges)
            return honest(n, edges)

        monkeypatch.setattr(graph_mod, "edges_connect", counted)
        assert run_sweep(SweepConfig(max_vertices=4, max_edges=5))["ok"]
        ids = [id(edges) for edges in proved if edges]  # () is one shared object
        assert len(ids) == len(set(ids)) > 0

    @staticmethod
    def count_smith_forms(monkeypatch, config):
        import graphkt.exact_linalg as linalg_mod
        import graphkt.ktheory as ktheory_mod
        import graphkt.sweep as sweep_mod

        honest = linalg_mod.smith_normal_form
        calls = []

        def counted(M):
            calls.append(len(M))
            return honest(M)

        for mod in (linalg_mod, ktheory_mod, sweep_mod):
            monkeypatch.setattr(mod, "smith_normal_form", counted)
        assert run_sweep(config)["ok"]
        return len(calls)

    def test_one_minus_a_and_its_transpose_reduced_once_per_graph(self, monkeypatch):
        # every check reads the two cached Smith forms, and each one-edge
        # contraction reads its class's cokernel off the sweep's table
        calls = self.count_smith_forms(monkeypatch, SweepConfig(max_vertices=3, max_edges=4))
        cyclic = [G for G in enumerate_connected(3, 4) if betti_number(G) >= 1]
        assert calls == 2 * len(cyclic)

    def test_random_mode_reduces_each_contraction(self, monkeypatch):
        # random mode has no table, so each one-edge contraction is reduced
        config = SweepConfig(mode="random", sample_count=30, seed=5, max_edges=5)
        calls = self.count_smith_forms(monkeypatch, config)
        cyclic = [G for G in random_connected(config) if betti_number(G) >= 1]
        contractions = sum(1 for G in cyclic for u, v in G.edges if u != v)
        assert contractions > 0
        assert calls == 2 * len(cyclic) + contractions

    def test_table_miss_fails_contraction_claim(self, monkeypatch):
        # a canonical_key that lies on the contractions finds no class in
        # the table: that is a contraction_claim failure, not a KeyError
        import graphkt.sweep as sweep_mod

        graphs = enumerate_connected(3, 4)
        monkeypatch.setattr(sweep_mod, "enumerate_connected", lambda *bounds: graphs)
        monkeypatch.setattr(sweep_mod, "canonical_key", lambda G: (G.vertex_count, ("lie",)))
        report = run_sweep(SweepConfig(max_vertices=3, max_edges=4), max_failures=1000)
        contracting = [G for G in graphs if betti_number(G) >= 1 and G.vertex_count >= 2]
        assert len(report["failures"]) == len(contracting) > 0
        for failure in report["failures"]:
            assert failure["check"] == "contraction_claim"
            assert failure["message"] == "contracted class must have been checked before it"

    @pytest.mark.parametrize(
        "config",
        [SweepConfig(max_vertices=0), SweepConfig(max_edges=-1),
         SweepConfig(mode="random", sample_count=0)],
    )
    def test_no_graph_to_check_refused(self, config):
        with pytest.raises(DomainError, match="admit no graph"):
            run_sweep(config)

    def test_random_mode_passes(self):
        report = run_sweep(SweepConfig(mode="random", sample_count=40, seed=7))
        assert report["ok"]
        assert report["graphs_checked"] == 40

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
        assert not report["ok"]
        assert report["failures"][0]["graph"].startswith("vertices")

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
        assert not report["ok"]
        assert report["failures"][0]["check"] in ("snf_diagonal", "ktheory_groups")

    def test_zeta_mismatch_fails_bass_identity_first(self, monkeypatch):
        # the sweep's Bass check goes through zeta_report, which raises on
        # an edge/vertex mismatch; that must be recorded as bass_identity
        import graphkt.ihara_zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "ihara_rhs", lambda G: [1])
        report = run_sweep(SweepConfig(max_vertices=2, max_edges=3), max_failures=1)
        assert report["failures"][0]["check"] == "bass_identity"
        assert report["failures"][0]["message"] == "edge and vertex zeta polynomials disagree"

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
        failures = {(f["check"], f["message"]) for f in report["failures"]}
        assert ("cycle_space_lemma", "cycle image must be annihilated by 1 - T") in failures
        assert ("reduction_transcript", "the contraction reduction must end diagonal") in failures


# Smith logs that check_snf_diagonal must refuse, made from the honest one;
# size is the order of 1 - A.  The replay catches the dropped operation.  The
# check of each operation catches the others before the replay, which would
# miss two of them (the doubled row is zero in d, and 1.0 == 1) and raise on
# the other two.
def _float_multiplier(ops, size):
    i = next(i for i, op in enumerate(ops) if op[0] == "row_add")
    kind, dst, src, k = ops[i]
    return ops[:i] + ((kind, dst, src, float(k)),) + ops[i + 1 :]


TAMPERED_LOGS = {
    "row_add_to_itself": lambda ops, size: ops + (("row_add", size - 1, size - 1, 1),),
    "unknown_kind": lambda ops, size: ops + (("row_scale", 0, 2),),
    "index_out_of_range": lambda ops, size: ops + (("col_swap", 0, size),),
    "non_int_multiplier": _float_multiplier,
    "dropped_operation": lambda ops, size: ops[1:],
}


class TestSmithLogCertificate:
    graph = generate_theta(3)

    def test_honest_log_passes(self):
        assert check_snf_diagonal(GraphChecks(self.graph))

    @pytest.mark.parametrize("name", sorted(TAMPERED_LOGS))
    def test_tampered_log_refused(self, name):
        ctx = GraphChecks(self.graph)
        honest = ctx.snf
        ctx.snf = SmithDecomposition(honest.d, TAMPERED_LOGS[name](honest.operations, len(ctx.M)))
        with pytest.raises(CheckFailed):
            check_snf_diagonal(ctx)

    @pytest.mark.parametrize("name", sorted(TAMPERED_LOGS))
    def test_tampered_log_recorded_by_the_sweep(self, monkeypatch, name):
        import graphkt.sweep as sweep_mod

        def tampered(ctx):
            honest = sweep_mod.smith_normal_form(ctx.M)
            return SmithDecomposition(honest.d, TAMPERED_LOGS[name](honest.operations, len(ctx.M)))

        monkeypatch.setattr(sweep_mod, "enumerate_connected", lambda *bounds: [self.graph])
        monkeypatch.setattr(sweep_mod.GraphChecks, "snf", property(tampered))
        report = run_sweep(SweepConfig(), max_failures=1)
        assert [f["check"] for f in report["failures"]] == ["snf_diagonal"]


def test_simplicity_flags_checked_for_every_genus(monkeypatch):
    # the closed-form flags are compared with the dense scans on g = 1 too
    import graphkt.ktheory as ktheory_mod

    monkeypatch.setattr(ktheory_mod, "simplicity_flags", lambda G, g: (False, False, False))
    report = run_sweep(SweepConfig(max_vertices=1, max_edges=1), max_failures=1)
    assert [f["check"] for f in report["failures"]] == ["edge_matrix_structure"]
    assert report["failures"][0]["graph"] == format_graph(generate_flower(1))


def test_reversal_asymmetry_detected():
    # swapping two unequal entries of one row keeps every row sum and the
    # total, so only the comparison with the reversal-transpose can see it
    ctx = GraphChecks(generate_theta(2))
    A = [list(row) for row in ctx.A]
    j, k = next((j, k) for j, k in combinations(range(len(A)), 2) if A[0][j] != A[0][k])
    A[0][j], A[0][k] = A[0][k], A[0][j]
    ctx.A = A
    with pytest.raises(CheckFailed, match="path reversal symmetry must hold"):
        check_edge_matrix_structure(ctx)
