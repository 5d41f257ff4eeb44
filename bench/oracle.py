"""Expected outputs of graphkt commands, derived without graphkt.

The answers come from the paper's closed forms (``K0 = Z^g + Z/(g-1)``,
kernel rank g, unit order ``(g-1)/gcd(g-1, |V|)``, vanishing order g) and
from this module's own sparse non-backtracking operator, which checks the
witnesses graphkt prints.  Each check raises :class:`Mismatch` on the
first disagreement.
"""

from __future__ import annotations

import json
from collections import deque
from math import gcd

CHECK_NAMES = (
    "graph_structure",
    "edge_matrix_structure",
    "snf_diagonal",
    "ktheory_groups",
    "cycle_space_lemma",
    "g1_kernel_generators",
    "unit_order",
    "reduction_transcript",
    "contraction_claim",
    "bass_identity",
    "boundary_compatibility",
    "convention_independence",
)

# det(1 - uA) is compared with the printed polynomial at u = _U, modulo
# the prime _P so that no big integers arise
_P = (1 << 61) - 1
_U = 3


class Mismatch(Exception):
    pass


def _need(condition, message):
    if not condition:
        raise Mismatch(message)


def successors(graph):
    """Row k of A as a list: the oriented edges leaving the terminus of
    oriented edge k, except its reversal.  Index i < m is edge i as
    stored, index m + i its reversal."""
    n, edges = graph
    m = len(edges)
    ends = list(edges) + [(v, u) for u, v in edges]
    leaving = [[] for _ in range(n)]
    for k, (origin, _) in enumerate(ends):
        leaving[origin].append(k)
    return [
        [k2 for k2 in leaving[t] if k2 != (k + m) % (2 * m)]
        for k, (_, t) in enumerate(ends)
    ]


def genus(graph):
    n, edges = graph
    return len(edges) - n + 1


def expected_k0(g):
    return {"rank": g if g >= 2 else 2, "torsion": [g - 1] if g >= 3 else []}


def expected_unit_order(graph):
    g = genus(graph)
    return (g - 1) // gcd(g - 1, graph[0]) if g >= 2 else None


def _strongly_connected(succ):
    size = len(succ)
    if size == 1:
        return bool(succ[0])
    preds = [[] for _ in range(size)]
    for k, row in enumerate(succ):
        for k2 in row:
            preds[k2].append(k)

    def reach(adj):
        seen = {0}
        queue = deque([0])
        while queue:
            for k2 in adj[queue.popleft()]:
                if k2 not in seen:
                    seen.add(k2)
                    queue.append(k2)
        return len(seen)

    return reach(succ) == size and reach(preds) == size


def _is_permutation(succ):
    if any(len(row) != 1 for row in succ):
        return False
    return sorted(row[0] for row in succ) == list(range(len(succ)))


def simplicity(succ):
    irreducible = _strongly_connected(succ)
    permutation = _is_permutation(succ)
    return {
        "irreducible": irreducible,
        "permutation": permutation,
        "simple_claim_applicable": irreducible and not permutation,
    }


def one_minus_a_times(succ, x):
    """(1 - A) x."""
    return [x[k] - sum(x[k2] for k2 in row) for k, row in enumerate(succ)]


def one_minus_a_transpose_times(succ, r):
    """(1 - A)^t r."""
    out = list(r)
    for k, row in enumerate(succ):
        for k2 in row:
            out[k2] -= r[k]
    return out


def _check_hermite_rows(rows):
    """Row echelon with positive pivots and entries above each pivot in
    [0, pivot): the rows are independent and in Hermite normal form."""
    last = -1
    for i, row in enumerate(rows):
        pivot = next((j for j, v in enumerate(row) if v), None)
        _need(pivot is not None and pivot > last, "k1_basis is not in row echelon form")
        _need(row[pivot] > 0, "k1_basis pivot is not positive")
        for above in rows[:i]:
            _need(0 <= above[pivot] < row[pivot], "k1_basis is not reduced above a pivot")
        last = pivot


def _load(code, stdout):
    _need(code == 0, f"exit code {code}")
    return json.loads(stdout)


def check_invariants(graph, code, stdout):
    report = _load(code, stdout)
    n, edges = graph
    two_m = 2 * len(edges)
    g = genus(graph)
    succ = successors(graph)
    _need(
        set(report) == {"g", "vertices", "edges", "k0", "k1_rank", "k1_basis",
                        "unit_order", "witnesses", "simplicity"},
        "report keys",
    )
    _need((report["g"], report["vertices"], report["edges"]) == (g, n, len(edges)), "g, |V| or m")
    _need(report["k0"] == expected_k0(g), f"k0 {report['k0']} for g = {g}")
    rank = expected_k0(g)["rank"]
    _need(report["k1_rank"] == rank, f"k1_rank {report['k1_rank']} for g = {g}")
    basis = report["k1_basis"]
    _need(len(basis) == rank and all(len(row) == two_m for row in basis), "k1_basis shape")
    for row in basis:
        _need(not any(one_minus_a_transpose_times(succ, row)),
              "k1_basis row not annihilated by (1 - A)^t")
    _check_hermite_rows(basis)
    order = expected_unit_order(graph)
    _need(report["unit_order"] == order, f"unit_order {report['unit_order']}, expected {order}")
    witness = report["witnesses"]["unit_preimage"]
    if order is None:
        _need(witness is None, "witness for an infinite-order unit")
    else:
        _need(witness is not None and len(witness) == two_m, "witness shape")
        _need(one_minus_a_times(succ, witness) == [order] * two_m,
              "witness does not solve (1 - A) x = order * 1")
    _need(report["simplicity"] == simplicity(succ), "simplicity flags")


def check_classify(pair, code, stdout):
    verdict = _load(code, stdout)
    gs = [genus(G) for G in pair]
    orders = [expected_unit_order(G) for G in pair]
    flags = [simplicity(successors(G))["simple_claim_applicable"] for G in pair]
    _need(all(flags), "benchmark pairs must satisfy the simplicity hypothesis")
    isomorphic = gs[0] == gs[1] and orders[0] == orders[1]
    expected = {
        "mode": "strict",
        "verdict": "ISOMORPHIC" if isomorphic else "NOT_ISOMORPHIC",
        "g": gs,
        "k0": [expected_k0(g) for g in gs],
        "simple_claim_applicable": flags,
        "unit_orders": orders,
    }
    _need(verdict == expected, f"classify gave {verdict}, expected {expected}")


def _det_mod_p(rows):
    """Determinant modulo _P by Gaussian elimination."""
    a = [[v % _P for v in row] for row in rows]
    size = len(a)
    det = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % _P
        inv = pow(a[c][c], _P - 2, _P)
        for r in range(c + 1, size):
            f = a[r][c] * inv % _P
            if f:
                a[r] = [(x - f * y) % _P for x, y in zip(a[r], a[c])]
    return det % _P


def zeta_value_mod_p(succ, u):
    """det(1 - uA) modulo _P, from this module's own A."""
    size = len(succ)
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for k, row in enumerate(succ):
        for k2 in row:
            rows[k][k2] -= u
    return _det_mod_p(rows)


def check_zeta(graph, code, stdout):
    report = _load(code, stdout)
    g = genus(graph)
    two_m = 2 * len(graph[1])
    _need(set(report) == {"g", "edge_poly", "vertex_poly", "identity_holds", "ord_at_one"},
          "report keys")
    _need(report["g"] == g, f"g {report['g']}, expected {g}")
    poly = report["edge_poly"]
    _need(report["identity_holds"] is True and report["vertex_poly"] == poly,
          "edge and vertex zeta polynomials differ")
    _need(report["ord_at_one"] == (g if g >= 2 else 2), f"ord_at_one {report['ord_at_one']} for g = {g}")
    _need(0 < len(poly) <= two_m + 1 and poly[0] == 1, "edge_poly degree or constant term")
    value = sum(c * _U**i for i, c in enumerate(poly)) % _P
    _need(value == zeta_value_mod_p(successors(graph), _U), f"edge_poly({_U}) != det(1 - {_U}A)")


def check_verify(graphs, code, stdout):
    report = _load(code, stdout)
    _need(report.get("ok") is True and report.get("failures") == [], "sweep reported failures")
    _need(report.get("graphs_checked") == graphs,
          f"graphs_checked {report.get('graphs_checked')}, expected {graphs}")
    counts = report.get("checks", {})
    _need(set(counts) == set(CHECK_NAMES), "check names")
    _need(all(0 < counts[name] <= graphs for name in CHECK_NAMES), "check counts out of range")
