import random

import pytest
from hypothesis import given, settings
from sympy import Matrix, symbols

from graphkt import (
    DomainError,
    Multigraph,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
    zeta_report,
)
from graphkt.edge_operator import edge_matrix
from graphkt.errors import TheoremViolation
from graphkt.exact_linalg import (
    charpoly_bound,
    poly_matrix_det,
    poly_mul,
    poly_pow,
    poly_trim,
    reversed_charpoly,
)
from graphkt.ihara_zeta import (
    edge_charpoly,
    ihara_rhs,
    vanishing_order_at_one,
    vertex_adjacency_matrix,
)
from graphkt.multigraph import betti_number, is_connected
from graphkt.sweep import _vertex_poly_matrix, enumerate_connected

from .strategies import connected_multigraphs
from .test_exact_linalg import cofactor_poly_det, count_passes, lagrange_poly_matrix_det


def one_minus_u_edge_matrix(G):
    A = edge_matrix(G)
    n = len(A)
    return [
        [poly_trim([1 if i == j else 0, -A[i][j]]) for j in range(n)]
        for i in range(n)
    ]


def charpoly_by_cofactors(G):
    return cofactor_poly_det(one_minus_u_edge_matrix(G))


def charpoly_by_interpolation(G):
    """The earlier edge route: 2m + 1 Bareiss determinants, interpolated."""
    return poly_matrix_det(one_minus_u_edge_matrix(G))


def bareiss_rhs(G):
    """The earlier vertex route: Bareiss determinants of I - u*A_V + u^2*Q,
    interpolated, times (1 - u^2)^(g-1)."""
    factor = poly_pow([1, 0, -1], betti_number(G) - 1)
    return poly_mul(factor, poly_matrix_det(_vertex_poly_matrix(G)))


def random_connected_graph(edge_count, seed):
    """A random spanning tree plus uniform extra edges, with m = 2|V|."""
    rng = random.Random(seed)
    n = edge_count // 2
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count - n + 1)]
    rng.shuffle(edges)
    G = Multigraph(n, tuple(edges))
    assert is_connected(G)
    return G


class TestEdgeCharpoly:
    def test_cycle3(self):
        # the operator permutes the six oriented edges in two 3-cycles
        expected = poly_mul([1, 0, 0, -1], [1, 0, 0, -1])
        assert edge_charpoly(generate_cycle(3)) == expected

    def test_flower1(self):
        assert edge_charpoly(generate_flower(1)) == [1, -2, 1]  # (1 - u)^2

    def test_flower2(self):
        # (1-u)^2 (1+u) (1-3u), expanded
        p = edge_charpoly(generate_flower(2))
        assert p == [1, -4, 2, 4, -3]
        assert p == charpoly_by_cofactors(generate_flower(2))

    @settings(max_examples=60, deadline=None)
    @given(connected_multigraphs(max_vertices=5, max_edges=8))
    def test_against_interpolation(self, G):
        assert edge_charpoly(G) == charpoly_by_interpolation(G)

    @pytest.mark.parametrize(
        "G",
        [generate_flower(2), generate_theta(3), generate_cycle(4)],
        ids=["flower2", "theta3", "cycle4"],
    )
    def test_against_sympy_charpoly(self, G):
        x = symbols("x")
        chi = Matrix(edge_matrix(G)).charpoly(x).all_coeffs()  # leading first
        assert edge_charpoly(G) == poly_trim([int(c) for c in chi])

    @pytest.mark.slow
    @pytest.mark.parametrize("edge_count", [50, 60])
    def test_large_random_against_vertex_side(self, edge_count):
        G = random_connected_graph(edge_count, seed=edge_count)
        assert len(edge_matrix(G)) == 2 * edge_count
        assert edge_charpoly(G) == ihara_rhs(G)

    def test_one_pass_at_76_oriented_edges(self, monkeypatch):
        # a 110-bit bound took two primes below 2^61; one Mersenne prime
        # above twice the bound now suffices
        G = random_connected_graph(38, seed=38)
        bound = charpoly_bound(edge_matrix(G))
        assert bound.bit_length() == 110
        expected = ihara_rhs(G)
        moduli = count_passes(monkeypatch)
        assert edge_charpoly(G) == expected
        assert moduli == [(1 << 127) - 1]

    def test_small_bound_takes_the_61_bit_prime(self, monkeypatch):
        moduli = count_passes(monkeypatch)
        edge_charpoly(generate_theta(3))
        assert moduli == [(1 << 61) - 1]

    def test_pendant_degree_drop(self):
        # a zero row of A caps the degree below 2m
        G = Multigraph(2, ((0, 0), (0, 1)))
        assert len(edge_charpoly(G)) - 1 < 4


class TestIharaRhs:
    def test_flower2_vertex_side(self):
        # A_V = [4], Q = [3]: (1 - u^2)(1 - 4u + 3u^2)
        assert vertex_adjacency_matrix(generate_flower(2)) == [[4]]
        assert ihara_rhs(generate_flower(2)) == [1, -4, 2, 4, -3]

    def test_cycle3_matches_edge_side(self):
        assert ihara_rhs(generate_cycle(3)) == edge_charpoly(generate_cycle(3))

    def test_tree_rejected(self):
        with pytest.raises(DomainError, match="g >= 1"):
            ihara_rhs(Multigraph(2, ((0, 1),)))

    @settings(max_examples=60, deadline=None)
    @given(connected_multigraphs(max_vertices=5, max_edges=8, min_genus=1))
    def test_newton_against_lagrange(self, G):
        # the sweep's Bareiss route, by both interpolations, against the companion
        P = _vertex_poly_matrix(G)
        assert poly_matrix_det(P) == lagrange_poly_matrix_det(P)
        assert bareiss_rhs(G) == ihara_rhs(G)

    def test_every_class_at_5_6_against_the_second_routes(self):
        # companion against Bareiss, terminus order against index order
        graphs = [G for G in enumerate_connected(5, 6) if betti_number(G) >= 1]
        assert len(graphs) == 397
        for G in graphs:
            assert ihara_rhs(G) == bareiss_rhs(G)
            assert edge_charpoly(G) == reversed_charpoly(edge_matrix(G))


class TestBassIdentity:
    @pytest.mark.parametrize(
        "G",
        [generate_flower(2), generate_theta(3), generate_chain(3), generate_cycle(4)],
        ids=["flower2", "theta3", "chain3", "cycle4"],
    )
    def test_holds(self, G):
        assert edge_charpoly(G) == ihara_rhs(G)

    def test_holds_with_ends(self):
        G = Multigraph(2, ((0, 0), (0, 0), (0, 1)))
        assert edge_charpoly(G) == ihara_rhs(G)

    def test_tree_rejected(self):
        with pytest.raises(DomainError):
            zeta_report(Multigraph(3, ((0, 1), (1, 2))))

    def test_mismatch_raises(self, monkeypatch):
        import graphkt.ihara_zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "ihara_rhs", lambda G: [1, -4, 2, 4, -2])
        with pytest.raises(TheoremViolation, match="zeta polynomials disagree"):
            zeta_report(generate_flower(2))

    def test_wrong_vanishing_order_raises(self, monkeypatch):
        import graphkt.ihara_zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "vanishing_order_at_one", lambda p: 1)
        with pytest.raises(TheoremViolation, match="vanishing order 1"):
            zeta_report(generate_theta(3))


class TestVanishingOrder:
    def test_flower2(self):
        assert vanishing_order_at_one([1, -4, 2, 4, -3]) == 2

    def test_no_root(self):
        assert vanishing_order_at_one([1, 1]) == 0

    def test_cycle_square(self):
        assert vanishing_order_at_one(poly_mul([1, 0, 0, -1], [1, 0, 0, -1])) == 2

    def test_zero_poly_rejected(self):
        for zero in ([], [0, 0]):
            with pytest.raises(DomainError):
                vanishing_order_at_one(zero)


def test_zeta_report_json():
    payload = zeta_report(generate_flower(2))
    assert payload["identity_holds"] is True
    assert payload["ord_at_one"] == 2
    assert payload["edge_poly"] == [1, -4, 2, 4, -3]
    assert payload["edge_poly"] == payload["vertex_poly"]
