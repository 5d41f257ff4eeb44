"""The non-backtracking edge operator of a multigraph.

A graph with m geometric edges has 2m oriented edges: index i < m keeps
edge i's stored (u, v) orientation, index m + i is its reversal.  The
operator sends an oriented edge e to the sum of the oriented edges e' with
o(e') = t(e) and e' != reversal(e); its 0/1 matrix A has A[e][e'] = 1
exactly for those pairs, rows indexed by the source edge.  On coefficient
column vectors the operator therefore acts as the transpose of A; every
result downstream (normal forms, kernel rank, cokernel class of the
all-ones vector) is the same for A and its transpose, which is checked
rather than assumed.

A is held densely, so a graph with more than MAX_EDGES edges is refused
before anything of size 2m x 2m is allocated.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError

__all__ = [
    "MAX_EDGES",
    "oriented_edges",
    "reversal",
    "successors",
    "edge_matrix",
    "one_minus_edge_matrix",
    "is_irreducible",
    "is_permutation",
]

# A dense 1 - A holds 4m^2 Python ints: 8 bytes of list slot each, so about
# 0.5 GB per matrix at this limit.
MAX_EDGES = 4096


def oriented_edges(G):
    """(origin, terminus) per oriented edge index; loops give two distinct
    indices with equal endpoints."""
    fwd = list(G.edges)
    return fwd + [(v, u) for u, v in fwd]


def reversal(i, m):
    """Index of the reversed oriented edge; an involution without fixed points."""
    return i + m if i < m else i - m


def successors(G):
    """Row k of A as a list: the oriented edges leaving the terminus of
    oriented edge k, except its reversal."""
    m = len(G.edges)
    ends = oriented_edges(G)
    out_at = [[] for _ in range(G.vertex_count)]
    for k, (o, _) in enumerate(ends):
        out_at[o].append(k)
    succ = []
    for k, (_, t) in enumerate(ends):
        row = out_at[t].copy()
        row.remove(reversal(k, m))  # the reversal of k leaves t(k)
        succ.append(row)
    return succ


def edge_matrix(G):
    """The 2m x 2m non-backtracking adjacency matrix A, filled from ``successors``."""
    m = len(G.edges)
    if m > MAX_EDGES:
        raise DomainError(f"{m} edges exceed the dense edge operator's limit of {MAX_EDGES}")
    A = [[0] * (2 * m) for _ in range(2 * m)]
    for row, succ in zip(A, successors(G)):
        for k in succ:
            row[k] = 1
    return A


def one_minus_edge_matrix(G):
    """1 - A for the graph's edge matrix, built over A's own rows so that
    only one extra row is ever held."""
    M = edge_matrix(G)
    for i, row in enumerate(M):
        M[i] = [-a for a in row]
        M[i][i] += 1
    return M


def is_irreducible(A):
    """True when the arc digraph of the matrix is strongly connected.

    Uses two reachability sweeps instead of matrix powers; a single node
    counts only if it carries an arc.
    """
    n = len(A)
    if n == 0:
        return False
    if n == 1:
        return A[0][0] != 0

    def reach(forward):
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            i = queue.popleft()
            for j in range(n):
                hit = A[i][j] if forward else A[j][i]
                if hit and not seen[j]:
                    seen[j] = True
                    count += 1
                    queue.append(j)
        return count

    return reach(True) == n and reach(False) == n


def is_permutation(A):
    """True when every row and every column has exactly one 1."""
    n = len(A)
    if any(sum(row) != 1 for row in A):
        return False
    return all(sum(A[i][j] for i in range(n)) == 1 for j in range(n))
