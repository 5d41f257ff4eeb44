import random
import subprocess
import sys
import textwrap
from math import gcd

import pytest
from hypothesis import given, settings

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
    report_to_json_dict,
)
from graphkt.edge_operator import (
    edge_matrix,
    is_irreducible,
    is_permutation,
    one_minus_edge_matrix,
)
from graphkt.exact_linalg import (
    AbelianGroup,
    apply_operations,
    apply_row_operations_to_vector,
    cokernel,
    kernel_basis,
    mat_vec,
    solve_min_scalar,
    transpose,
)
from graphkt.ktheory import (
    boundary_algebra_compatible,
    contraction_reduce,
    cycle_lattice,
    expected_invariants,
    g1_kernel_generators,
    k0,
    k1,
    phi,
    simplicity_flags,
    unit_order,
)
from graphkt.multigraph import betti_number, contract_edge, cycle_basis
from graphkt.sweep import enumerate_connected

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
    def test_flower1_loop(self):
        assert phi(generate_flower(1), [1]) == [1, -1]

    def test_zero_cycle(self):
        assert phi(generate_theta(2), [0, 0, 0]) == [0] * 6

    def test_theta2(self):
        assert phi(generate_theta(2), [1, -1, 0]) == [1, -1, 0, -1, 1, 0]

    def test_non_cycle_rejected(self):
        with pytest.raises(DomainError, match="not a cycle"):
            phi(generate_theta(2), [1, 0, 0])

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=1))
    def test_image_annihilated(self, G):
        Mt = transpose(one_minus_edge_matrix(G))
        for c in cycle_basis(G):
            assert not any(mat_vec(Mt, phi(G, c)))


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
        # theta 3 trips the per-round state check
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


class TestUnitOrder:
    def test_flower5(self):
        assert unit_order(generate_flower(5)) == 4

    def test_theta4(self):
        # 2 vertices, 5 edges: (g - 1) / gcd(g - 1, 2) = 3
        assert unit_order(generate_theta(4)) == 3

    def test_chain5(self):
        # 8 vertices: (5 - 1) / gcd(4, 8) = 1
        assert unit_order(generate_chain(5)) == 1

    def test_flower1_infinite(self):
        assert unit_order(generate_flower(1)) is None

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=2))
    def test_closed_forms(self, G):
        g = betti_number(G)
        lam = unit_order(G)
        assert lam == (g - 1) // gcd(g - 1, G.vertex_count)
        assert lam == (g - 1) // gcd(g - 1, len(G.edges))
        assert (g - 1) % lam == 0


class TestClassify:
    def test_stable_equivalent(self):
        v = classify_stable(generate_flower(3), generate_theta(3))
        assert v.verdict == "EQUIVALENT"
        assert v.k0[0] == v.k0[1] == AbelianGroup(3, (2,))

    def test_stable_not(self):
        v = classify_stable(generate_flower(3), generate_flower(4))
        assert v.verdict == "NOT_EQUIVALENT"
        assert v.k0[0].torsion == (2,) and v.k0[1].torsion == (3,)

    def test_stable_chain_vs_flower(self):
        assert classify_stable(generate_chain(3), generate_flower(3)).verdict == "EQUIVALENT"

    def test_strict_flower_theta(self):
        v = classify_strict(generate_flower(3), generate_theta(3))
        assert v.verdict == "NOT_ISOMORPHIC"
        assert v.unit_orders == (2, 1)

    def test_strict_theta4_flower4(self):
        v = classify_strict(generate_theta(4), generate_flower(4))
        assert v.verdict == "ISOMORPHIC"
        assert v.unit_orders == (3, 3)

    def test_strict_reflexive(self):
        assert classify_strict(generate_flower(3), generate_flower(3)).verdict == "ISOMORPHIC"

    def test_strict_homotopy_witness(self):
        v = classify_strict(generate_chain(5), generate_flower(5))
        assert v.verdict == "NOT_ISOMORPHIC"
        assert v.unit_orders == (1, 4)
        assert classify_stable(generate_chain(5), generate_flower(5)).verdict == "EQUIVALENT"

    def test_low_genus_rejected(self):
        with pytest.raises(DomainError, match="g >= 2"):
            classify_stable(generate_flower(1), generate_flower(2))

    def test_indeterminate_on_ends(self):
        v = classify_strict(FLOWER2_PENDANT, generate_flower(2))
        assert v.verdict == "INDETERMINATE"
        assert v.simple_claim_applicable == (False, True)
        assert v.reason

    def test_stable_carries_caveat(self):
        v = classify_stable(FLOWER2_PENDANT, generate_flower(2))
        assert v.verdict == "EQUIVALENT"
        assert v.simple_claim_applicable == (False, True)
        assert v.reason


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
    realized = {unit_order(S) for S in stages}
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
    assert (rep.k0, rep.k1_rank, rep.unit_order) == (group, group.free_rank, order)


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
        assert rep.g == 3
        assert rep.k0 == AbelianGroup(3, (2,))
        assert rep.k1_rank == 3
        assert rep.unit_order == 2
        assert rep.simple_claim_applicable

    def test_g1(self):
        rep = ktheory_report(generate_flower(1))
        assert rep.unit_order is None and rep.unit_witness is None
        assert rep.k0 == AbelianGroup(2)

    def test_json_shape(self):
        payload = report_to_json_dict(ktheory_report(generate_theta(3)))
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
        assert rep.k0 == cokernel(Mt)
        assert [list(row) for row in rep.k1_basis] == kernel_basis(Mt)
        assert k1(G)[1] == kernel_basis(Mt)
        other = solve_min_scalar(Mt, [1] * len(Mt))
        assert rep.unit_order == (None if other is None else other[0])


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
