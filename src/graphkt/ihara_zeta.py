"""Zeta-function cross-checks for the edge operator.

The reciprocal zeta polynomial det(1 - uA) computed on oriented edges must
factor through the vertex data as (1 - u^2)^(g-1) * det(I - u*A_V + u^2*Q),
where A_V is the vertex adjacency matrix (a loop adds 2 to its diagonal
entry) and Q = D - I with D the valence diagonal (loops count 2).  The
vanishing order at u = 1 recovers the corank of 1 - A.  The edge side is
computed modulo primes, the vertex side by interpolation; any disagreement
raises TheoremViolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .edge_operator import edge_matrix
from .errors import DomainError, TheoremViolation
from .exact_linalg import (
    poly_divexact,
    poly_eval,
    poly_matrix_det,
    poly_mul,
    poly_pow,
    poly_trim,
    reversed_charpoly,
)
from .ktheory import _require_genus, expected_invariants
from .multigraph import betti_number, require_connected, valences

__all__ = [
    "vertex_adjacency_matrix",
    "edge_charpoly",
    "ihara_rhs",
    "vanishing_order_at_one",
    "ZetaReport",
    "zeta_report",
    "zeta_report_to_json_dict",
]


def vertex_adjacency_matrix(G):
    """Vertex adjacency counts; a loop contributes 2 to its diagonal entry."""
    n = G.vertex_count
    A = [[0] * n for _ in range(n)]
    for u, v in G.edges:
        if u == v:
            A[u][u] += 2
        else:
            A[u][v] += 1
            A[v][u] += 1
    return A


def edge_charpoly(G):
    """det(1 - uA) for the non-backtracking edge matrix, exactly."""
    require_connected(G)
    return reversed_charpoly(edge_matrix(G))


def ihara_rhs(G):
    """(1 - u^2)^(g-1) * det(I - u*A_V + u^2*(D - I)) on vertex data."""
    g = _require_genus(G, 1)
    n = G.vertex_count
    A_v = vertex_adjacency_matrix(G)
    val = valences(G)
    P = [
        [
            poly_trim(
                [1 if i == j else 0, -A_v[i][j], val[i] - 1 if i == j else 0]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = poly_matrix_det(P)
    return poly_mul(poly_pow([1, 0, -1], g - 1), det)


def vanishing_order_at_one(p):
    """Largest k with (1 - u)^k dividing p, by repeated exact division."""
    if not p:
        raise DomainError("the zero polynomial has no vanishing order")
    order = 0
    while poly_eval(p, 1) == 0:
        p = poly_divexact(p, [1, -1])
        order += 1
    return order


@dataclass(frozen=True)
class ZetaReport:
    g: int
    edge_poly: tuple
    vertex_poly: tuple
    ord_at_one: int


def zeta_report(G):
    rank = expected_invariants(G)[1]  # DomainError below g = 1
    edge_poly = edge_charpoly(G)
    vertex_poly = ihara_rhs(G)
    if edge_poly != vertex_poly:
        raise TheoremViolation("edge and vertex zeta polynomials disagree")
    order = vanishing_order_at_one(edge_poly)
    if order != rank:
        raise TheoremViolation(f"vanishing order {order} at u = 1 must equal the kernel rank")
    return ZetaReport(
        g=betti_number(G),
        edge_poly=tuple(edge_poly),
        vertex_poly=tuple(vertex_poly),
        ord_at_one=order,
    )


def zeta_report_to_json_dict(report):
    # coefficient arrays are lowest degree first
    return {
        "g": report.g,
        "edge_poly": list(report.edge_poly),
        "vertex_poly": list(report.vertex_poly),
        "identity_holds": True,  # zeta_report raises on a mismatch
        "ord_at_one": report.ord_at_one,
    }
