import random
import subprocess
import sys
import textwrap
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings

import graphkt.multigraph as multigraph_mod
from graphkt import (
    DomainError,
    Multigraph,
    classify_stable,
    classify_strict,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
    ktheory_report,
    parse_graph,
)
from graphkt.cli import main
from graphkt.edge_operator import (
    edge_matrix,
    is_irreducible,
    is_permutation,
    one_minus_edge_matrix,
    oriented_edges,
)
from graphkt.errors import TheoremViolation
from graphkt.exact_linalg import (
    AbelianGroup,
    _min_scalar,
    _replay_vector,
    apply_operation,
    apply_operations,
    apply_row_operations_to_vector,
    cokernel,
    hermite_normal_form,
    kernel_basis,
    mat_vec,
    smith_normal_form,
    solve_min_scalar,
    transpose,
)
from graphkt.ktheory import (
    ReductionTranscript,
    _decompose,
    _require_genus,
    _unit_hermite,
    boundary_algebra_compatible,
    contraction_reduce,
    cycle_lattice,
    expected_invariants,
    g1_kernel_generators,
    k0,
    k1,
    simplicity_flags,
)
from graphkt.multigraph import betti_number, contract_edge, cycle_basis, is_connected, valences
from graphkt.sweep import SweepConfig, enumerate_connected, run_sweep

from .strategies import connected_multigraphs

FLOWER2_PENDANT = Multigraph(2, ((0, 0), (0, 0), (0, 1)))


class TestK0:
    def test_flower3(self):
        assert k0(generate_flower(3)) == AbelianGroup(3, (2,))

    def test_flower1_is_z2(self):
        assert k0(generate_flower(1)) == AbelianGroup(2)

    def test_chain4(self):
        assert k0(generate_chain(4)) == AbelianGroup(4, (3,))

    def test_g2_has_no_torsion(self):
        assert k0(generate_flower(2)) == AbelianGroup(2)

    def test_tree_rejected(self):
        with pytest.raises(DomainError, match="g >= 1"):
            k0(Multigraph(2, ((0, 1),)))


class TestK1:
    def test_flower2(self):
        assert k1(generate_flower(2))[0] == 2

    def test_flower1(self):
        assert k1(generate_flower(1))[0] == 2

    def test_theta3(self):
        rank, basis = k1(generate_theta(3))
        assert rank == 3
        Mt = transpose(one_minus_edge_matrix(generate_theta(3)))
        for row in basis:
            assert not any(mat_vec(Mt, row))


class TestPhi:
    # the paper's lift phi of a cycle c is (c, -c) on the oriented edges

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=1))
    def test_image_annihilated(self, G):
        Mt = transpose(one_minus_edge_matrix(G))
        for c in cycle_basis(G):
            assert not any(mat_vec(Mt, c + [-k for k in c]))


def phi_image_equals_kernel(G):
    """The kernel lemma for g >= 2: the lifted cycle lattice equals
    ker(1 - T), computed by the generic kernel of 1 - A^t."""
    return cycle_lattice(G) == kernel_basis(transpose(one_minus_edge_matrix(G)))


class TestKernelLemma:
    def test_flower2(self):
        assert phi_image_equals_kernel(generate_flower(2))

    def test_chain3(self):
        assert phi_image_equals_kernel(generate_chain(3))

    def test_graph_with_end(self):
        assert phi_image_equals_kernel(FLOWER2_PENDANT)
        # no end edge occurs in the kernel
        _, basis = k1(FLOWER2_PENDANT)
        for row in basis:
            assert row[2] == 0 and row[5] == 0

    def test_g1_rejected(self):
        with pytest.raises(DomainError, match="g >= 2"):
            phi_image_equals_kernel(generate_flower(1))


GOLDEN = Path(__file__).parent / "golden"


def _invariants_exit(name, capsys):
    """(exit code, stderr) of ``invariants`` on a golden graph."""
    code = main(["invariants", str(GOLDEN / name)])
    return code, capsys.readouterr().err


def _bfs_tree(G):
    """The breadth-first tree from vertex 0, edges by increasing index, that
    the cycle basis used before: its cycles can run below their edge."""
    inc = multigraph_mod._incidence(G)
    parent, tree, queue = {0: None}, set(), [0]
    for u in queue:
        for i, w in inc[u]:
            if w not in parent:
                parent[w] = (u, i)
                tree.add(i)
                queue.append(w)
    return tree, parent


class TestTreeKernelBasis:
    """``invariants`` prints the lifted fundamental cycles of one spanning
    tree for g >= 2 and the Hermite form of the two g = 1 generators; the
    Smith route's ``left_kernel`` stays the oracle."""

    def test_equals_left_kernel_on_every_class(self):
        graphs = [G for G in enumerate_connected(5, 7) if betti_number(G) >= 1]
        assert len(graphs) > 1000
        for G in graphs:
            oracle = smith_normal_form(one_minus_edge_matrix(G)).left_kernel
            assert ktheory_report(G)["k1_basis"] == oracle

    @settings(max_examples=60)
    @given(connected_multigraphs(max_vertices=6, max_edges=10, min_genus=1))
    def test_equals_left_kernel(self, G):
        oracle = smith_normal_form(one_minus_edge_matrix(G)).left_kernel
        assert ktheory_report(G)["k1_basis"] == oracle

    def test_dropped_successor_exits_3(self, monkeypatch, capsys):
        import graphkt.edge_operator as edge_mod
        import graphkt.ktheory as ktheory_mod

        honest = edge_mod.successors

        def dropped(G):
            succ = honest(G)
            succ[0].pop()
            return succ

        with monkeypatch.context() as mp:
            # only the certificate's lists lie: the Smith route is honest
            mp.setattr(ktheory_mod, "successors", dropped)
            for name in ("chain5.graph", "flower1.graph", "flower5.graph", "theta4.graph"):
                assert _invariants_exit(name, capsys) == (
                    3, "theorem violation: kernel vector must be annihilated by 1 - T\n")
        # the operator lies everywhere, dense A included
        monkeypatch.setattr(edge_mod, "successors", dropped)
        monkeypatch.setattr(ktheory_mod, "successors", dropped)
        for name in ("chain5.graph", "flower1.graph", "flower5.graph", "mixed.graph",
                     "theta4.graph"):
            assert _invariants_exit(name, capsys)[0] == 3

    def test_breadth_first_tree_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(multigraph_mod, "_tree", _bfs_tree)
        for name in ("chain5.graph", "mixed.graph", "theta4.graph"):
            assert _invariants_exit(name, capsys) == (
                3, "theorem violation: kernel rows must be a Hermite basis with unit pivots\n")

    @pytest.mark.parametrize("name", ["chain5.graph", "mixed.graph", "theta4.graph"])
    def test_one_flipped_sign_exits_3(self, name, monkeypatch, capsys):
        import graphkt.ktheory as ktheory_mod

        honest = ktheory_mod.cycle_basis
        G = parse_graph((GOLDEN / name).read_text())
        positions = [(r, e) for r, c in enumerate(honest(G)) for e, k in enumerate(c) if k]
        for r, e in positions:

            def flipped(G, r=r, e=e):
                basis = honest(G)
                basis[r][e] = -basis[r][e]
                return basis

            monkeypatch.setattr(ktheory_mod, "cycle_basis", flipped)
            code, err = _invariants_exit(name, capsys)
            assert code == 3 and err.startswith("theorem violation: kernel ")


    def test_unreduced_basis_exits_3(self, monkeypatch, capsys):
        # the first cycle plus the second still spans the same lattice and
        # is annihilated, but it is not the Hermite form that is printed
        import graphkt.ktheory as ktheory_mod

        honest = ktheory_mod.cycle_basis

        def unreduced(G):
            basis = honest(G)
            basis[0] = [a + b for a, b in zip(basis[0], basis[1])]
            return basis

        monkeypatch.setattr(ktheory_mod, "cycle_basis", unreduced)
        for name in ("chain5.graph", "flower5.graph", "theta4.graph"):
            assert _invariants_exit(name, capsys) == (
                3, "theorem violation: kernel rows must be a Hermite basis with unit pivots\n")


    def test_reversed_basis_exits_3(self, monkeypatch, capsys):
        import graphkt.ktheory as ktheory_mod

        honest = ktheory_mod.cycle_basis
        monkeypatch.setattr(ktheory_mod, "cycle_basis", lambda G: honest(G)[::-1])
        for name in ("chain5.graph", "flower5.graph", "theta4.graph"):
            assert _invariants_exit(name, capsys) == (
                3, "theorem violation: kernel rows must be a Hermite basis with unit pivots\n")

    def test_g1_basis_from_an_unsaturated_hermite_form_exits_3(self, monkeypatch, capsys):
        # a Hermite routine that doubles its second row still gives two
        # independent kernel rows, but they no longer span the kernel
        import graphkt.ktheory as ktheory_mod

        def doubling(M):
            H = hermite_normal_form(M)
            return [H[0]] + [[2 * x for x in row] for row in H[1:]]

        monkeypatch.setattr(ktheory_mod, "hermite_normal_form", doubling)
        assert _invariants_exit("flower1.graph", capsys) == (
            3, "theorem violation: kernel rows must be a Hermite basis with unit pivots\n")

    @pytest.mark.parametrize("rows", [
        [[2, 0], [0, 1]],  # pivot 2: the lattice is not saturated
        [[0, 1], [1, 0]],  # pivots decrease
        [[1, 1], [0, 1]],  # nonzero at the other row's pivot
        [[1, 0], [0, 0]],  # a zero row
        [[1, 0], [1, 0]],  # a repeated pivot
    ])
    def test_unit_hermite_refuses(self, rows):
        with pytest.raises(TheoremViolation, match="Hermite basis with unit pivots"):
            _unit_hermite(rows)
        assert _unit_hermite([[1, 0, 2], [0, 1, -3]]) == [[1, 0, 2], [0, 1, -3]]


class TestG1Generators:
    def test_flower1(self):
        assert g1_kernel_generators(generate_flower(1)) == ([1, -1], [1, 0])

    def test_cycle3(self):
        lifted, second = g1_kernel_generators(generate_cycle(3))
        assert lifted == [1, 1, 1, -1, -1, -1]
        assert second == [1, 1, 1, 0, 0, 0]  # the cycle itself

    def test_cycle_with_pendants(self):
        # a triangle with four pendant edges hanging off it
        G = Multigraph(
            7, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (4, 5), (4, 6))
        )
        lifted, second = g1_kernel_generators(G)
        m = len(G.edges)
        Mt = transpose(one_minus_edge_matrix(G))
        assert not any(mat_vec(Mt, lifted))
        assert not any(mat_vec(Mt, second))
        # pendants contribute exactly one outward orientation each
        for e in (3, 4, 5, 6):
            assert second[e] + second[e + m] == 1

    def test_wrong_genus(self):
        with pytest.raises(DomainError, match="g = 1"):
            g1_kernel_generators(generate_flower(2))


class TestTranscript:
    def test_flower_direct(self):
        t = contraction_reduce(generate_flower(3))
        assert t.contraction_order == ()
        assert t.ones_image[t.size - t.genus - 1] == 3  # g * |V| = 3 * 1
        assert t.final_diagonal[t.size - t.genus - 1] == -2

    def test_theta2(self):
        t = contraction_reduce(generate_theta(2))
        assert len(t.contraction_order) == 1
        assert t.ones_image[3] == 4  # g * |V| = 2 * 2

    def test_chain3(self):
        G = generate_chain(3)
        t = contraction_reduce(G)
        assert len(t.contraction_order) == 3  # collapse |V| - 1 vertices
        diag = sorted(abs(d) for d in t.final_diagonal)
        assert diag == [0, 0, 0] + [1] * 8 + [2]
        assert t.ones_image[8] == 12  # g * |V| = 3 * 4
        assert t.ones_image[-3:] == (0, 0, 0)

    def test_replay(self):
        G = generate_chain(3)
        t = contraction_reduce(G)
        M = one_minus_edge_matrix(G)
        replayed = apply_operations(M, t.operations)
        n = t.size
        assert all(
            replayed[i][j] == (t.final_diagonal[i] if i == j else 0)
            for i in range(n)
            for j in range(n)
        )
        assert tuple(apply_row_operations_to_vector([1] * n, t.operations)) == t.ones_image

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_invariance(self, seed):
        G = generate_chain(3)
        base = sorted(abs(d) for d in contraction_reduce(G).final_diagonal)
        shuffled = contraction_reduce(G, rng=random.Random(seed))
        assert sorted(abs(d) for d in shuffled.final_diagonal) == base

    def test_tree_rejected(self):
        with pytest.raises(DomainError):
            contraction_reduce(Multigraph(2, ((0, 1),)))

    def test_tampered_reduction_raises_under_optimize(self):
        # flower 3 reaches the final checks without a contraction round,
        # theta 3 after one
        script = textwrap.dedent(
            """
            import sys
            import graphkt.ktheory as ktheory
            from graphkt import generate_flower, generate_theta
            from graphkt.edge_operator import one_minus_edge_matrix
            from graphkt.errors import TheoremViolation

            assert False, "this script must run under python -O"

            def tampered(G):
                M = one_minus_edge_matrix(G)
                M[0][-1] += 1
                return M

            ktheory.one_minus_edge_matrix = tampered
            raised = 0
            for G in (generate_flower(3), generate_theta(3)):
                try:
                    ktheory.contraction_reduce(G)
                except TheoremViolation:
                    raised += 1
            sys.exit(3 if raised == 2 else 1)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr


def dense_contraction_reduce(G, rng=None):
    """The contraction reduction that carries 1 - A through every round,
    reads its column clears off that matrix and checks the state lemma after
    each round: the oracle for ``contraction_reduce``, which reads its log
    off the contracted graph."""
    n_orig = G.vertex_count
    g = _require_genus(G, 1)
    m = len(G.edges)
    two_m = 2 * m
    M = one_minus_edge_matrix(G)
    ones = [[1] for _ in range(two_m)]  # the ones-image, as one column
    ops = []

    def record(*op):
        apply_operation(M, op)
        if op[0].startswith("row_"):
            apply_operation(ones, op)
        ops.append(op)

    H = G
    orig = list(range(m))  # H edge index -> original edge index
    sizes = [1] * n_orig  # H vertex -> number of original vertices merged in
    frozen = []
    contraction_order = []

    while True:
        nonloops = [j for j, (u, v) in enumerate(H.edges) if u != v]
        if not nonloops:
            break
        # least valence sum in H, recounted on H every round; ties by lowest index
        val = valences(H)
        j = rng.choice(nonloops) if rng is not None else min(
            nonloops, key=lambda k: val[H.edges[k][0]] + val[H.edges[k][1]])
        m_h = len(H.edges)
        ends = oriented_edges(H)

        def to_orig(k):
            return orig[k] if k < m_h else orig[k - m_h] + m

        gamma, gamma_bar = to_orig(j), to_orig(j + m_h)
        u, v = H.edges[j]
        for k, (_, t) in enumerate(ends):
            if k == j or k == j + m_h:
                continue
            if t == u:
                record("row_add", to_orig(k), gamma, 1)
            elif t == v:
                record("row_add", to_orig(k), gamma_bar, 1)
        for source in (gamma, gamma_bar):
            for f in range(two_m):
                if f != source and M[source][f]:
                    record("col_add", f, source, -M[source][f])
        frozen.extend((gamma, gamma_bar))
        contraction_order.append(gamma)

        lo, hi = (u, v) if u < v else (v, u)
        sizes[lo] += sizes[hi]
        del sizes[hi]
        H = contract_edge(H, j)
        orig.pop(j)
        _check_contraction_state(M, ones, H, orig, m, frozen, sizes)

    # single-vertex block: surviving loops, both orientations
    loops = orig
    loops_bar = [x + m for x in loops]
    for i in range(g):
        record("row_add", loops_bar[i], loops[i], -1)
    for i in range(g):
        record("col_add", loops_bar[i], loops[i], -1)
    for j in range(1, g):
        record("col_add", loops[j], loops[0], -1)
    for i in range(g - 1):
        record("row_add", loops[g - 1], loops[i], 1)
    for i in range(1, g - 1):
        record("row_add", loops[0], loops[i], 1)
    if g >= 3:
        record("col_add", loops[0], loops[g - 1], -(g - 2))
    for i in range(1, g - 1):
        record("col_add", loops[0], loops[i], 1)

    # sort: units, then the generator of the torsion part, then zeros
    row_order = sorted(frozen + loops[: g - 1]) + [loops[g - 1]] + sorted(loops_bar)
    col_order = list(row_order)
    if g >= 2:
        swap = {loops[0]: loops[g - 1], loops[g - 1]: loops[0]}
        col_order = [swap.get(r, r) for r in row_order]

    current = list(range(two_m))
    for p, want in enumerate(row_order):
        q = current.index(want)
        if q != p:
            record("row_swap", p, q)
            current[p], current[q] = current[q], current[p]
    current = list(range(two_m))
    for p, want in enumerate(col_order):
        q = current.index(want)
        if q != p:
            record("col_swap", p, q)
            current[p], current[q] = current[q], current[p]

    diag = [M[i][i] for i in range(two_m)]
    if any(M[i][j] for i in range(two_m) for j in range(two_m) if i != j):
        raise TheoremViolation("the contraction reduction must end diagonal")
    if not (
        all(abs(d) == 1 for d in diag[: two_m - g - 1])
        and abs(diag[two_m - g - 1]) == g - 1
        and not any(diag[two_m - g :])
    ):
        raise TheoremViolation("the reduced diagonal must be units, g - 1, then g zeros")
    b = [row[0] for row in ones]
    if b[two_m - g - 1] != g * n_orig or any(b[two_m - g :]):
        raise TheoremViolation("the ones-image must end with g * |V| and g zeros")
    return ReductionTranscript(
        size=two_m,
        vertex_count=n_orig,
        genus=g,
        operations=tuple(ops),
        ones_image=tuple(b),
        final_diagonal=tuple(diag),
        contraction_order=tuple(contraction_order),
    )


def _check_contraction_state(M, b, H, orig, m, frozen, sizes):
    # Frozen rows and columns must be unit vectors; the active submatrix
    # must equal 1 - A of the contracted graph; the running ones-image (a
    # one-column matrix b) on an active row counts the original vertices merged into its terminus.
    m_h = len(H.edges)
    ends = oriented_edges(H)
    active = [orig[k] if k < m_h else orig[k - m_h] + m for k in range(2 * m_h)]
    A_h = edge_matrix(H)
    for fr in frozen:
        unit = [1 if c == fr else 0 for c in range(len(M))]
        if M[fr] != unit or [row[fr] for row in M] != unit:
            raise TheoremViolation("a contracted row and column must be a unit vector")
    for k1_, r in enumerate(active):
        for k2_, c in enumerate(active):
            if M[r][c] != (1 if k1_ == k2_ else 0) - A_h[k1_][k2_]:
                raise TheoremViolation("the active block must be 1 - A of the contracted graph")
    for k, r in enumerate(active):
        if b[r][0] != sizes[ends[k][1]]:
            raise TheoremViolation("the ones-image must count the vertices merged into a terminus")


def _random_connected_graph(two_m, seed):
    rng = random.Random(seed)
    n = max(1, two_m // 4)  # m = 2|V|
    while True:
        G = Multigraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(two_m // 2)))
        if is_connected(G):
            return G


def _lying_oriented_edges(G):
    # edge 0's two orientations with their ends swapped
    ends = oriented_edges(G)
    m = len(G.edges)
    ends[0], ends[m] = ends[m], ends[0]
    return ends


class TestTranscriptFromTheGraph:
    # contraction_reduce reads each round off the contracted graph; the dense
    # loop above reads it off 1 - A and checks the state lemma every round

    @pytest.mark.parametrize("seed", [None, 7])
    def test_equals_dense_loop_on_small_classes(self, seed):
        graphs = [G for G in enumerate_connected(5, 6) if betti_number(G) >= 1]
        for G in graphs:
            rng = None if seed is None else random.Random(seed)
            dense_rng = None if seed is None else random.Random(seed)
            assert contraction_reduce(G, rng) == dense_contraction_reduce(G, dense_rng)

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("two_m", [8, 40, 120, 200])
    def test_equals_dense_loop_on_random_graphs(self, two_m, seed):
        G = _random_connected_graph(two_m, two_m)
        rng = None if seed is None else random.Random(seed)
        dense_rng = None if seed is None else random.Random(seed)
        assert contraction_reduce(G, rng) == dense_contraction_reduce(G, dense_rng)

    @pytest.mark.parametrize("g", [3, 4])
    def test_lying_contraction_raises(self, g, monkeypatch):
        import graphkt.ktheory as ktheory_mod

        monkeypatch.setattr(ktheory_mod, "oriented_edges", _lying_oriented_edges)
        with pytest.raises(TheoremViolation, match="must end diagonal"):
            contraction_reduce(generate_theta(g))

    def test_lying_contraction_recorded_by_sweep(self, monkeypatch):
        import graphkt.ktheory as ktheory_mod

        monkeypatch.setattr(ktheory_mod, "oriented_edges", _lying_oriented_edges)
        report = run_sweep(SweepConfig(max_vertices=3, max_edges=4))
        assert not report["ok"]
        failed = {f["check"] for f in report["failures"]}
        assert {"reduction_transcript", "contraction_claim"} <= failed

    def test_doubled_matrix_raises(self, monkeypatch):
        import graphkt.ktheory as ktheory_mod

        def doubled(G):
            return [[2 * x for x in row] for row in one_minus_edge_matrix(G)]

        monkeypatch.setattr(ktheory_mod, "one_minus_edge_matrix", doubled)
        with pytest.raises(TheoremViolation, match="units, g - 1, then g zeros"):
            contraction_reduce(generate_theta(3))

    def test_doubled_ones_image_raises(self, monkeypatch):
        import graphkt.ktheory as ktheory_mod

        def doubled(v, ops):
            return [2 * x for x in apply_row_operations_to_vector(v, ops)]

        monkeypatch.setattr(ktheory_mod, "apply_row_operations_to_vector", doubled)
        with pytest.raises(TheoremViolation, match=r"g \* \|V\| and g zeros"):
            contraction_reduce(generate_theta(3))

    def test_one_build_of_one_minus_a_whatever_the_rounds(self, monkeypatch):
        import graphkt.edge_operator as edge_mod
        import graphkt.ktheory as ktheory_mod

        calls = []

        def counted(name, fn):
            def wrapper(G):
                calls.append(name)
                return fn(G)

            return wrapper

        monkeypatch.setattr(edge_mod, "edge_matrix", counted("A", edge_mod.edge_matrix))
        monkeypatch.setattr(
            ktheory_mod, "one_minus_edge_matrix", counted("1 - A", one_minus_edge_matrix)
        )
        # a binding of edge_matrix by name in ktheory would bypass the first patch
        monkeypatch.setattr(ktheory_mod, "edge_matrix", counted("A", edge_matrix), raising=False)
        t = contraction_reduce(generate_chain(4))
        assert len(t.contraction_order) == 5
        assert sorted(calls) == ["1 - A", "A"]


def _transcript_route(G):
    """(K0, unit order, transcript) off the contraction transcript: the
    oracle of ``_decompose``, which reduces a Smith form of 1 - A instead."""
    t = contraction_reduce(G)
    diag = t.final_diagonal
    return AbelianGroup.from_diagonal(diag, t.size), _min_scalar(diag, t.ones_image), t


class TestUnitOrder:
    def test_flower5(self):
        assert _decompose(generate_flower(5))[1] == 4 == _transcript_route(generate_flower(5))[1]

    def test_theta4(self):
        # 2 vertices, 5 edges: (g - 1) / gcd(g - 1, 2) = 3
        assert _decompose(generate_theta(4))[1] == 3 == _transcript_route(generate_theta(4))[1]

    def test_chain5(self):
        # 8 vertices: (5 - 1) / gcd(4, 8) = 1
        assert _decompose(generate_chain(5))[1] == 1 == _transcript_route(generate_chain(5))[1]

    def test_flower1_infinite(self):
        assert _decompose(generate_flower(1))[1] is None
        assert _transcript_route(generate_flower(1))[1] is None

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=2))
    def test_closed_forms(self, G):
        g = betti_number(G)
        group, lam = _decompose(G)[:2]
        assert (group, lam) == _transcript_route(G)[:2]
        M = one_minus_edge_matrix(G)
        assert solve_min_scalar(M, [1] * len(M))[0] == lam
        assert lam == (g - 1) // gcd(g - 1, G.vertex_count)
        assert lam == (g - 1) // gcd(g - 1, len(G.edges))
        assert (g - 1) % lam == 0


def _both_routes(G1, G2):
    """Both verdicts of each mode, from ``_decompose`` and from the transcript."""
    import graphkt.ktheory as ktheory_mod

    new = [classify_strict(G1, G2), classify_stable(G1, G2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ktheory_mod, "_decompose", _transcript_route)
        old = [classify_strict(G1, G2), classify_stable(G1, G2)]
    return new, old


def _doubled(min_scalar):
    # a lambda helper that returns 2 lam, and None (infinite order) as it is
    def doubled(diag, c):
        lam = min_scalar(diag, c)
        return None if lam is None else 2 * lam

    return doubled


class TestClassifyFromTheTranscript:
    """Both classify modes read K0 and the unit order off ``_decompose``, the
    Smith route of every report; the contraction transcript is its oracle."""

    def test_equals_smith_route_on_small_classes(self):
        graphs = [G for G in enumerate_connected(5, 6) if betti_number(G) >= 2]
        assert len(graphs) > 200
        for G1, G2 in zip(graphs, graphs[1:] + graphs[:1]):
            new, old = _both_routes(G1, G2)
            assert new == old

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=2), connected_multigraphs(min_genus=2))
    def test_equals_smith_route(self, G1, G2):
        new, old = _both_routes(G1, G2)
        assert new == old

    def test_given_matrix_is_the_built_one_and_stays(self):
        for G in [G for G in enumerate_connected(4, 5) if betti_number(G) >= 1] + [
            _random_connected_graph(40, 40), _random_connected_graph(120, 120)
        ]:
            M = one_minus_edge_matrix(G)
            assert contraction_reduce(G, M=M) == contraction_reduce(G)
            assert M == one_minus_edge_matrix(G)

    def test_doubled_ones_image_recorded_by_sweep(self, monkeypatch, capsys):
        # no command but verify runs the transcript: its check reaches the raise
        import graphkt.ktheory as ktheory_mod

        def doubled(v, ops):
            return [2 * x for x in apply_row_operations_to_vector(v, ops)]

        monkeypatch.setattr(ktheory_mod, "apply_row_operations_to_vector", doubled)
        assert main(["verify", "--max-vertices", "1", "--max-edges", "2"]) == 5
        assert capsys.readouterr().err.startswith(
            "counterexample for reduction_transcript: "
            "the ones-image must end with g * |V| and g zeros\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "flower4.graph"],  # the cross-check in _decompose
            ["classify", "flower4.graph", "theta4.graph", "--stable"],  # through k0
            ["classify", "flower4.graph", "theta4.graph", "--strict"],
        ],
        ids=["invariants", "classify-stable", "classify-strict"],
    )
    def test_transposed_cokernel_with_extra_torsion_exits_3(self, monkeypatch, capsys, argv):
        import graphkt.ktheory as ktheory_mod

        def padded(M):
            group = cokernel(M)
            extra = 2 * (group.torsion[-1] if group.torsion else 1)
            return AbelianGroup(group.free_rank, group.torsion + (extra,))

        monkeypatch.setattr(ktheory_mod, "cokernel", padded)
        code = main([str(GOLDEN / a) if a.endswith(".graph") else a for a in argv])
        assert (code, capsys.readouterr().err) == (
            3, "theorem violation: cokernel must not depend on the transpose convention\n")

    def test_doubled_unit_order_exits_3(self, monkeypatch, capsys):
        import graphkt.ktheory as ktheory_mod

        monkeypatch.setattr(ktheory_mod, "_min_scalar", _doubled(ktheory_mod._min_scalar))
        pair = [str(GOLDEN / "flower4.graph"), str(GOLDEN / "theta4.graph")]
        for argv in (["invariants", pair[0]], ["classify", *pair, "--stable"],
                     ["classify", *pair, "--strict"]):
            assert (main(argv), capsys.readouterr().err) == (
                3, "theorem violation: unit order solver found 6, closed form gives 3\n")

    def test_doubled_unit_order_recorded_by_sweep(self, monkeypatch):
        import graphkt.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_min_scalar", _doubled(sweep_mod._min_scalar))
        report = run_sweep(SweepConfig(max_vertices=3, max_edges=4))
        assert {f["check"] for f in report["failures"]} == {"reduction_transcript"}


class TestTransposedCrossCheckFill:
    # cokernel reduces 1 - A^t from its last row up; in index order its Smith
    # form pivots on the diagonal and fills in, logging over twice as much

    @pytest.mark.parametrize(
        "G",
        [generate_flower(48), generate_theta(48), generate_chain(34),
         _random_connected_graph(200, 200)],
        ids=["flower48", "theta48", "chain34", "random200"],
    )
    def test_logs_at_most_half_of_index_order(self, G, monkeypatch):
        import graphkt.exact_linalg as linalg_mod

        logged = []

        def counted(M):
            snf = smith_normal_form(M)
            logged.append(len(snf.operations))
            return snf

        Mt = transpose(one_minus_edge_matrix(G))
        monkeypatch.setattr(linalg_mod, "smith_normal_form", counted)
        group = cokernel(Mt)
        monkeypatch.undo()
        index_order = smith_normal_form(Mt)
        assert group == index_order.cokernel
        assert len(logged) == 1
        assert 2 * logged[0] <= len(index_order.operations)


def _group_dict(group):
    # an AbelianGroup as the reports print it
    return {"rank": group.free_rank, "torsion": list(group.torsion)}


class TestClassify:
    def test_stable_equivalent(self):
        v = classify_stable(generate_flower(3), generate_theta(3))
        assert v["verdict"] == "EQUIVALENT"
        assert v["k0"][0] == v["k0"][1] == _group_dict(AbelianGroup(3, (2,)))

    def test_stable_not(self):
        v = classify_stable(generate_flower(3), generate_flower(4))
        assert v["verdict"] == "NOT_EQUIVALENT"
        assert v["k0"][0]["torsion"] == [2] and v["k0"][1]["torsion"] == [3]

    def test_stable_chain_vs_flower(self):
        assert classify_stable(generate_chain(3), generate_flower(3))["verdict"] == "EQUIVALENT"

    def test_strict_flower_theta(self):
        v = classify_strict(generate_flower(3), generate_theta(3))
        assert v["verdict"] == "NOT_ISOMORPHIC"
        assert v["unit_orders"] == [2, 1]

    def test_strict_theta4_flower4(self):
        v = classify_strict(generate_theta(4), generate_flower(4))
        assert v["verdict"] == "ISOMORPHIC"
        assert v["unit_orders"] == [3, 3]

    def test_strict_reflexive(self):
        assert classify_strict(generate_flower(3), generate_flower(3))["verdict"] == "ISOMORPHIC"

    def test_strict_homotopy_witness(self):
        v = classify_strict(generate_chain(5), generate_flower(5))
        assert v["verdict"] == "NOT_ISOMORPHIC"
        assert v["unit_orders"] == [1, 4]
        assert classify_stable(generate_chain(5), generate_flower(5))["verdict"] == "EQUIVALENT"

    def test_low_genus_rejected(self):
        with pytest.raises(DomainError, match="g >= 2"):
            classify_stable(generate_flower(1), generate_flower(2))

    def test_indeterminate_on_ends(self):
        v = classify_strict(FLOWER2_PENDANT, generate_flower(2))
        assert v["verdict"] == "INDETERMINATE"
        assert v["simple_claim_applicable"] == [False, True]
        assert v["reason"]

    def test_stable_carries_caveat(self):
        v = classify_stable(FLOWER2_PENDANT, generate_flower(2))
        assert v["verdict"] == "EQUIVALENT"
        assert v["simple_claim_applicable"] == [False, True]
        assert v["reason"]


def test_transcript_exports_operation_log():
    from graphkt.exact_linalg import operations_to_text

    t = contraction_reduce(generate_theta(2))
    text = operations_to_text(t.operations)
    assert len(text.splitlines()) == len(t.operations)
    assert any(line.startswith("R") for line in text.splitlines())


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_order_realization_all_divisors(g):
    # every divisor of g - 1 appears as the unit order of some contraction
    # stage of chain(g)
    stages = [generate_chain(g)]
    while True:
        nonloops = [e for e, (u, v) in enumerate(stages[-1].edges) if u != v]
        if not nonloops:
            break
        stages.append(contract_edge(stages[-1], nonloops[0]))
    realized = {_decompose(S)[1] for S in stages}
    divisors = {d for d in range(1, g) if (g - 1) % d == 0}
    assert realized == divisors


@pytest.mark.parametrize(
    "G, group, order",
    [
        (generate_flower(1), AbelianGroup(2), None),
        (generate_flower(3), AbelianGroup(3, (2,)), 2),
        (generate_theta(4), AbelianGroup(4, (3,)), 3),
        (generate_chain(5), AbelianGroup(5, (4,)), 1),
    ],
    ids=["flower1", "flower3", "theta4", "chain5"],
)
def test_expected_invariants(G, group, order):
    assert expected_invariants(G) == (group, group.free_rank, order)
    rep = ktheory_report(G)
    assert (rep["k0"], rep["k1_rank"], rep["unit_order"]) == (
        _group_dict(group), group.free_rank, order)


class TestBoundaryCompatible:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_flowers(self, g):
        assert boundary_algebra_compatible(generate_flower(g))

    def test_theta5(self):
        assert not boundary_algebra_compatible(generate_theta(5))

    def test_chain4(self):
        # 6 vertices, g - 1 = 3, gcd = 3
        assert not boundary_algebra_compatible(generate_chain(4))


def test_automorphism_order_criterion():
    # inside Z/k, two elements are related by multiplication by a unit
    # exactly when they generate the same subgroup, i.e. have equal order
    for k in range(2, 13):
        units = [u for u in range(1, k) if gcd(u, k) == 1]
        for x in range(k):
            for y in range(k):
                same_order = k // gcd(x, k) == k // gcd(y, k)
                related = any(u * x % k == y for u in units)
                assert related == same_order


class TestReport:
    def test_flower3(self):
        rep = ktheory_report(generate_flower(3))
        assert rep["g"] == 3
        assert rep["k0"] == _group_dict(AbelianGroup(3, (2,)))
        assert rep["k1_rank"] == 3
        assert rep["unit_order"] == 2
        assert rep["simplicity"]["simple_claim_applicable"]

    def test_g1(self):
        rep = ktheory_report(generate_flower(1))
        assert rep["unit_order"] is None and rep["witnesses"]["unit_preimage"] is None
        assert rep["k0"] == _group_dict(AbelianGroup(2))

    @pytest.mark.parametrize("G", [generate_flower(1), generate_cycle(4)], ids=["flower1", "cycle4"])
    def test_g1_report_takes_one_hermite_form(self, G, monkeypatch):
        import graphkt.ktheory as ktheory_mod

        calls = []

        def counted(M):
            calls.append(len(M))
            return hermite_normal_form(M)

        monkeypatch.setattr(ktheory_mod, "hermite_normal_form", counted)
        rep = ktheory_report(G)
        assert calls == [2]
        assert rep["k1_basis"] == hermite_normal_form(list(g1_kernel_generators(G)))

    def test_json_shape(self):
        payload = ktheory_report(generate_theta(3))
        assert payload["g"] == 3
        assert payload["k0"] == {"rank": 3, "torsion": [2]}
        assert payload["unit_order"] == 1
        assert payload["simplicity"]["simple_claim_applicable"] is True
        assert payload["witnesses"]["unit_preimage"] is not None

    @settings(max_examples=60)
    @given(connected_multigraphs(min_genus=1))
    def test_matches_transposed_route(self, G):
        # the report reads everything from one Smith form of 1 - A; the
        # transpose of 1 - A, reduced independently, must give the same
        rep = ktheory_report(G)
        Mt = transpose(one_minus_edge_matrix(G))
        assert rep["k0"] == _group_dict(cokernel(Mt))
        assert rep["k1_basis"] == kernel_basis(Mt)
        assert k1(G)[1] == kernel_basis(Mt)
        other = solve_min_scalar(Mt, [1] * len(Mt))
        assert rep["unit_order"] == (None if other is None else other[0])


# The witnesses that invariants printed while it read them off the Smith form
# of 1 - A in index order, before they were made canonical
_INDEX_ORDER_WITNESSES = {
    "chain5.graph": [0, -1, 0, -2, -1, 0, -2, -1, 0, -2, -1, -2,
                     -2, -1, -2, 0, -1, -2, 0, -1, -2, 0, -1, 0],
    "flower4.graph": [-1, -1, -1, -1, 0, 0, 0, 0],
    "flower5.graph": [-1, -1, -1, -1, -1, 0, 0, 0, 0, 0],
    "mixed.graph": [-5, -3, -5, 4, 1, -5, -5, 3, 0, -2, 0, -9, -6, 0, 0, -8],
    "theta4.graph": [3, -2, -2, -2, -2, -5, 0, 0, 0, 0],
}


def _reduced(rows, x):
    """x minus x[p] times each row, p the row's pivot: for Hermite rows with
    unit pivots, the one vector congruent to x modulo their lattice that is
    0 at every pivot."""
    for row in rows:
        k = x[next(j for j, a in enumerate(row) if a)]
        x = [a - k * b for a, b in zip(x, row)]
    return x


def _three_witnesses(G):
    """The printed witness, and the canonical reductions of the index-order
    solve's witness and of the transcript's Y z."""
    M = one_minus_edge_matrix(G)
    _, lam, t = _transcript_route(G)
    z = [lam * v // d if d else 0 for d, v in zip(t.final_diagonal, t.ones_image)]
    lattice = cycle_lattice(G)
    return (
        ktheory_report(G)["witnesses"]["unit_preimage"],
        _reduced(lattice, solve_min_scalar(M, [1] * len(M))[1]),
        _reduced(lattice, _replay_vector(z, t.operations, "col_")),
    )


class TestCanonicalWitness:
    """The printed witness is the one solution of (1 - A) x = lam * 1 that is
    0 at every non-tree edge, whatever route solved the equation."""

    def test_three_routes_agree_on_every_class(self):
        graphs = [G for G in enumerate_connected(5, 6) if betti_number(G) >= 2]
        assert len(graphs) == 361
        for G in graphs:
            printed, solved, replayed = _three_witnesses(G)
            assert printed == solved == replayed

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=2))
    def test_three_routes_agree(self, G):
        printed, solved, replayed = _three_witnesses(G)
        assert printed == solved == replayed
        m = len(G.edges)
        M = one_minus_edge_matrix(G)
        assert mat_vec(M, printed) == [expected_invariants(G)[2]] * (2 * m)
        tree = set(multigraph_mod.spanning_tree(G))
        assert all(printed[e] == 0 for e in range(m) if e not in tree)

    @pytest.mark.parametrize("name", sorted(_INDEX_ORDER_WITNESSES))
    def test_differs_from_the_index_order_witness_by_the_kernel(self, name):
        rep = ktheory_report(parse_graph((GOLDEN / name).read_text()))
        new = rep["witnesses"]["unit_preimage"]
        old = _INDEX_ORDER_WITNESSES[name]
        assert old != new
        # a lattice vector's coordinates in a unit-pivot basis are its
        # entries at the pivots, so old - new lies in it exactly when this
        # reduction leaves nothing
        assert not any(_reduced(rep["k1_basis"], [a - b for a, b in zip(old, new)]))

    def test_lying_lattice_row_exits_3(self, monkeypatch, capsys):
        # a cycle_lattice row that is not in the kernel moves the witness off
        # the solutions wherever the witness is nonzero at the row's pivot
        import graphkt.ktheory as ktheory_mod

        honest = ktheory_mod.cycle_lattice

        def lying(G):
            rows = honest(G)
            rows[-1][-1] += 1
            return rows

        monkeypatch.setattr(ktheory_mod, "cycle_lattice", lying)
        for name in ("chain5.graph", "flower5.graph", "mixed.graph", "theta4.graph"):
            assert _invariants_exit(name, capsys) == (
                3, "theorem violation: unit witness must solve (1 - A) x = lam * 1 and "
                   "vanish at the non-tree edges\n")


def test_simplicity_flags_match_the_dense_scans():
    # the flags are read off g and the valences; the scans of the dense
    # 2m x 2m edge matrix stay as their oracle
    for G in enumerate_connected(5, 6):
        if not G.edges:  # the empty matrix is vacuously a permutation
            continue
        A = edge_matrix(G)
        irreducible, permutation, simple = simplicity_flags(G, betti_number(G))
        assert (irreducible, permutation) == (is_irreducible(A), is_permutation(A))
        assert simple == (irreducible and not permutation)
