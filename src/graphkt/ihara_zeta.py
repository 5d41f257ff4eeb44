"""Zeta-function cross-checks for the edge operator.

The reciprocal zeta polynomial det(1 - uA) computed on oriented edges must
factor through the vertex data as (1 - u^2)^(g-1) * det(I - u*A_V + u^2*Q),
where A_V is the vertex adjacency matrix (a loop adds 2 to its diagonal
entry) and Q = D - I with D the valence diagonal (loops count 2).  The
vanishing order at u = 1 recovers the corank of 1 - A.  Both sides are
Hessenberg characteristic polynomials modulo primes: of A (size 2m, edges
grouped by terminus) and of the companion matrix L = [[A_V, -Q], [I, 0]]
(size 2|V|), as det(I - uL) = det(I - u*A_V + u^2*Q).  Two sets of data, so
any disagreement raises TheoremViolation; the sweep keeps a second algorithm.
"""

from __future__ import annotations

from itertools import accumulate

from .edge_operator import MAX_EDGES, edge_matrix, oriented_edges
from .errors import DomainError, TheoremViolation
from .exact_linalg import poly_mul, poly_pow, reversed_charpoly
from .ktheory import _require_genus, expected_invariants
from .multigraph import betti_number, require_connected, valences

__all__ = [
    "MAX_ZETA_EDGES",
    "vertex_adjacency_matrix",
    "edge_charpoly",
    "ihara_rhs",
    "vanishing_order_at_one",
    "zeta_report",
]

# zeta's edge side grows about 18x per doubling of m: see README's size limit
MAX_ZETA_EDGES = 300


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
    """det(1 - uA) for the non-backtracking edge matrix, exactly.  Reduced
    with the oriented edges grouped by terminus, a permutation similarity:
    such rows differ only at the reversal entry, so they fill in little."""
    require_connected(G)
    A = edge_matrix(G)
    ends = oriented_edges(G)
    order = sorted(range(len(A)), key=lambda e: ends[e][1])
    return reversed_charpoly([[A[i][j] for j in order] for i in order])


def ihara_rhs(G):
    """(1 - u^2)^(g-1) * det(1 - uL) on vertex data, L = [[A_V, -(D - I)],
    [I, 0]] with coordinates interleaved (x_0, y_0, x_1, y_1, ...)."""
    g = _require_genus(G, 1)
    val = valences(G)
    L = []
    for i, row in enumerate(vertex_adjacency_matrix(G)):
        x, y = [0] * (2 * len(row)), [0] * (2 * len(row))
        x[::2] = row
        x[2 * i + 1] = 1 - val[i]
        y[2 * i] = 1
        L += [x, y]
    return poly_mul(poly_pow([1, 0, -1], g - 1), reversed_charpoly(L))


def vanishing_order_at_one(p):
    """Largest k with (1 - u)^k dividing p.  p vanishes at 1 when its
    coefficients sum to 0, and then p = (1 - u) q where q's coefficients are
    the prefix sums of p's, the last of which is that zero sum."""
    if not any(p):
        raise DomainError("the zero polynomial has no vanishing order")
    order = 0
    while not sum(p):
        p = list(accumulate(p))[:-1]
        order += 1
    return order


def zeta_report(G):
    """Both zeta sides, checked equal, and their vanishing order at u = 1,
    as printed; coefficient lists are lowest degree first."""
    rank = expected_invariants(G)[1]  # DomainError below g = 1
    m = len(G.edges)
    if MAX_ZETA_EDGES < m <= MAX_EDGES:  # above MAX_EDGES, edge_matrix refuses
        raise DomainError(f"{m} edges exceed zeta's limit of {MAX_ZETA_EDGES}")
    edge_poly = edge_charpoly(G)
    vertex_poly = ihara_rhs(G)
    if edge_poly != vertex_poly:
        raise TheoremViolation("edge and vertex zeta polynomials disagree")
    order = vanishing_order_at_one(edge_poly)
    if order != rank:
        raise TheoremViolation(f"vanishing order {order} at u = 1 must equal the kernel rank")
    return {
        "g": betti_number(G),
        "edge_poly": edge_poly,
        "vertex_poly": vertex_poly,
        "identity_holds": True,  # raised above on a mismatch
        "ord_at_one": order,
    }
