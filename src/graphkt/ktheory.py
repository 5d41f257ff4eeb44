"""K-theory of the edge operator's Cuntz-Krieger algebra, from graph data.

Both invariant groups are read off 1 - A with exact integer arithmetic:
the cokernel of 1 - A^t gives the degree-zero group, the kernel of the
operator (the right kernel of 1 - A^t, since the operator acts on column
vectors as the transpose of A) gives the degree-one group.  The order of
the unit class is the least positive lam with lam * (1, ..., 1) in the
image of 1 - A.  One Smith form X (1 - A) Y = D per graph, kept as D and
its operation log, feeds all three, through the readers of
``exact_linalg.SmithDecomposition``: ``cokernel`` reads the degree-zero
group off D, ``left_kernel`` spans {v : v (1 - A) = 0} by the rows of X at
the zero positions of D, and the unit solve uses X b and Y z.  The readers
replay the log on those few vectors only; X and Y are never built.
A second, independent reduction of 1 - A^t cross-checks the degree-zero
group.  Identities that must hold between independently computed
quantities are re-verified at runtime and raise TheoremViolation on
mismatch; that always means a bug, never bad input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .edge_operator import one_minus_edge_matrix, oriented_edges
from .errors import DomainError, TheoremViolation
from .exact_linalg import (
    AbelianGroup,
    apply_operations,
    apply_row_operations_to_vector,
    cokernel,
    hermite_normal_form,
    mat_vec,
    smith_normal_form,
    solve_min_scalar,
    transpose,
)
from .multigraph import betti_number, boundary, contract_edge, cycle_basis, valences

__all__ = [
    "k0",
    "k1",
    "phi",
    "cycle_lattice",
    "g1_kernel_generators",
    "ReductionTranscript",
    "contraction_reduce",
    "unit_order",
    "expected_invariants",
    "simplicity_flags",
    "classify_stable",
    "classify_strict",
    "boundary_algebra_compatible",
    "ktheory_report",
]


def _require_genus(G, minimum, message=None):
    g = betti_number(G)
    if g < minimum:
        raise DomainError(message or f"first Betti number g >= {minimum} required")
    return g


def _decompose(G):
    """(M, snf): M = 1 - A and its Smith form.  The degree-zero group read
    off it is cross-checked against the cokernel of 1 - A^t, which reduces
    the transpose independently (first, so that only one reduction is held
    in memory at a time)."""
    M = one_minus_edge_matrix(G)
    transposed = cokernel(transpose(M))
    snf = smith_normal_form(M)
    if snf.cokernel != transposed:
        raise TheoremViolation("cokernel must not depend on the transpose convention")
    return M, snf


def k0(G):
    """Cokernel of 1 - A^t on Z^(2m), cross-computed from 1 - A."""
    _require_genus(G, 1)
    return _decompose(G)[1].cokernel


def k1(G):
    """(rank, basis) of the kernel lattice of the operator 1 - T.

    The basis rows are in Hermite normal form; the rank is the first Betti
    number for g >= 2 and 2 for g = 1.
    """
    _require_genus(G, 1)
    basis = smith_normal_form(one_minus_edge_matrix(G)).left_kernel
    return len(basis), basis


def phi(G, cycle):
    """Lift a cycle vector into the kernel of 1 - T: coefficient k on
    geometric edge i becomes +k on oriented index i and -k on its reversal."""
    return _lift(G, cycle, transpose(one_minus_edge_matrix(G)))


def _lift(G, cycle, Mt):
    """``phi`` with 1 - A^t given as Mt, so that one build serves many cycles."""
    m = len(G.edges)
    if len(cycle) != m:
        raise DomainError("cycle vector length must equal the edge count")
    if any(boundary(G, cycle)):
        raise DomainError("not a cycle: boundary image is nonzero")
    out = [0] * (2 * m)
    for i, k in enumerate(cycle):
        out[i] = k
        out[m + i] = -k
    if any(mat_vec(Mt, out)):
        raise TheoremViolation("cycle image must be annihilated by 1 - T")
    return out


def cycle_lattice(G):
    """Hermite basis of the lifted cycle lattice, the image of ``phi`` on the
    cycle space; for a connected g >= 2 graph it equals ker(1 - T)."""
    _require_genus(G, 2, "the kernel identification is proven only for g >= 2")
    Mt = transpose(one_minus_edge_matrix(G))
    H, _ = hermite_normal_form([_lift(G, c, Mt) for c in cycle_basis(G)])
    return [row for row in H if any(row)]


def g1_kernel_generators(G):
    """Two independent kernel elements for a g = 1 graph: the lifted
    fundamental cycle, and the cycle as oriented edges plus every non-cycle
    edge oriented away from the cycle."""
    g = betti_number(G)
    if g != 1:
        raise DomainError("g = 1 required")
    c = cycle_basis(G)[0]
    m = len(G.edges)
    oriented = [0] * (2 * m)
    for i, k in enumerate(c):
        if k == 1:
            oriented[i] = 1
        elif k == -1:
            oriented[m + i] = 1
        elif k:
            raise TheoremViolation("fundamental cycle with non-unit coefficient")
    Mt = transpose(one_minus_edge_matrix(G))
    lifted = _lift(G, c, Mt)

    cycle_vertices = set()
    for i, (u, v) in enumerate(G.edges):
        if c[i]:
            cycle_vertices.update((u, v))
    dist = [None] * G.vertex_count
    queue = deque()
    for v in cycle_vertices:
        dist[v] = 0
        queue.append(v)
    while queue:
        u = queue.popleft()
        for i, (a, b) in enumerate(G.edges):
            for x, y in ((a, b), (b, a)):
                if x == u and dist[y] is None:
                    dist[y] = dist[u] + 1
                    queue.append(y)

    second = list(oriented)
    for i, (a, b) in enumerate(G.edges):
        if c[i]:
            continue
        if a == b or dist[a] == dist[b]:
            raise TheoremViolation("found a second independent cycle in a g = 1 graph")
        if dist[a] < dist[b]:
            second[i] += 1
        else:
            second[m + i] += 1

    if any(mat_vec(Mt, second)):
        raise TheoremViolation("outward-oriented generator must be annihilated by 1 - T")
    H, _ = hermite_normal_form([lifted, second])
    if sum(1 for row in H if any(row)) != 2:
        raise TheoremViolation("the two kernel generators must be independent")
    return lifted, second


@dataclass(frozen=True)
class ReductionTranscript:
    """Audit record of the contraction-driven reduction of 1 - A.

    Replaying ``operations`` on 1 - A reproduces ``final_diagonal``;
    replaying only the row operations on the all-ones vector reproduces
    ``ones_image``, whose last ``genus`` entries are zero and whose entry
    just before them equals genus * vertex_count.
    """

    size: int
    vertex_count: int
    genus: int
    operations: tuple
    ones_image: tuple
    final_diagonal: tuple
    contraction_order: tuple


def contraction_reduce(G, rng=None):
    """Diagonalize 1 - A by the contraction schedule, recording every
    elementary operation; replay the log once at the end to certify it.

    Each round picks a non-loop edge gamma = (u, v) of the contracted graph
    H (lowest index, or drawn from ``rng``), adds its two oriented rows to
    the rows of the edges flowing into their respective origins (clearing
    the two columns), clears the two rows with column additions, and
    continues on the contracted graph; only loops on a single vertex then
    remain and that block is reduced directly.  A final permutation sorts
    the diagonal: units first, then the single entry of magnitude g - 1,
    then the g zero rows.  The resulting diagonal is independent of the
    contraction order.

    The active block is 1 - A of H in every round (the state lemma), so the
    rounds read their operations off H alone: row gamma holds -1 at each
    edge leaving v but gamma-bar.  One replay of the finished log on 1 - A
    and on the all-ones vector certifies it.
    """
    n_orig = G.vertex_count
    g = _require_genus(G, 1)
    m = len(G.edges)
    two_m = 2 * m
    ops = []

    def record(*op):
        ops.append(op)

    H = G
    orig = list(range(m))  # H edge index -> original edge index
    frozen = []
    contraction_order = []

    while True:
        nonloops = [j for j, (u, v) in enumerate(H.edges) if u != v]
        if not nonloops:
            break
        j = nonloops[0] if rng is None else rng.choice(nonloops)
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
        for source, head, back in ((gamma, v, j + m_h), (gamma_bar, u, j)):
            leaving = [to_orig(k) for k, (o, _) in enumerate(ends) if o == head and k != back]
            for f in sorted(leaving):
                record("col_add", f, source, 1)
        frozen.extend((gamma, gamma_bar))
        contraction_order.append(gamma)
        H = contract_edge(H, j)
        orig.pop(j)

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

    M = apply_operations(one_minus_edge_matrix(G), ops)
    diag = [M[i][i] for i in range(two_m)]
    if any(M[i][j] for i in range(two_m) for j in range(two_m) if i != j):
        raise TheoremViolation("the contraction reduction must end diagonal")
    if not (
        all(abs(d) == 1 for d in diag[: two_m - g - 1])
        and abs(diag[two_m - g - 1]) == g - 1
        and not any(diag[two_m - g :])
    ):
        raise TheoremViolation("the reduced diagonal must be units, g - 1, then g zeros")
    b = apply_row_operations_to_vector([1] * two_m, ops)
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


def simplicity_flags(G, g):
    """(irreducible, permutation, simple) for A: irreducible exactly when
    g >= 2 and no valence is below 2, a permutation exactly when g = 1 and
    none is (a cycle).  The sweep checks both against scans of A."""
    closed = min(valences(G), default=0) >= 2
    irreducible = closed and g >= 2
    return irreducible, closed and g == 1, irreducible


def expected_invariants(G):
    """(K0, kernel rank, unit order) as the theorem states them, from g and
    |V| alone: Z^g + Z/(g - 1), rank g and (g - 1) / gcd(g - 1, |V|) for
    g >= 2; Z^2, rank 2 and infinite order (None) for g = 1."""
    g = _require_genus(G, 1)
    if g == 1:
        return AbelianGroup(2), 2, None
    torsion = (g - 1,) if g >= 3 else ()
    return AbelianGroup(g, torsion), g, (g - 1) // gcd(g - 1, G.vertex_count)


def _unit_position(G, M, snf=None):
    """(order, witness) of the unit class, or None when the order is infinite.

    M is 1 - A and snf, when given, its Smith form.  The solver result is
    cross-checked against the closed form of ``expected_invariants``.
    """
    expected = expected_invariants(G)[2]
    result = solve_min_scalar(M, [1] * len(M), snf)
    found = None if result is None else result[0]
    if found != expected:
        raise TheoremViolation(f"unit order solver found {found}, closed form gives {expected}")
    return result


def unit_order(G):
    """Order of the unit class: least lam > 0 with lam * (1, ..., 1) in the
    image of 1 - A, or None (infinite order, g = 1)."""
    _require_genus(G, 1)
    result = _unit_position(G, one_minus_edge_matrix(G))
    return None if result is None else result[0]


EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
ISOMORPHIC = "ISOMORPHIC"
NOT_ISOMORPHIC = "NOT_ISOMORPHIC"
INDETERMINATE = "INDETERMINATE"


def _group_json(group):
    return {"rank": group.free_rank, "torsion": list(group.torsion)}


def _verdict(mode, verdict, g, groups, flags, **extra):
    """The printed verdict; ``extra`` appends unit_orders, then reason."""
    return {
        "mode": mode,
        "verdict": verdict,
        "g": list(g),
        "k0": [_group_json(grp) for grp in groups],
        "simple_claim_applicable": list(flags),
        **extra,
    }


_CLASSIFY_MESSAGE = "classification proven only for g >= 2"


def classify_stable(G1, G2):
    """Stable-isomorphism verdict: equivalent exactly when the Betti
    numbers agree.  The attached flags record whether the simplicity
    hypothesis behind the classification holds for each input."""
    g1 = _require_genus(G1, 2, _CLASSIFY_MESSAGE)
    g2 = _require_genus(G2, 2, _CLASSIFY_MESSAGE)
    groups = (k0(G1), k0(G2))
    if (g1 == g2) != (groups[0] == groups[1]):
        raise TheoremViolation("degree-zero groups must match exactly when g does")
    flags = (simplicity_flags(G1, g1)[2], simplicity_flags(G2, g2)[2])
    out = _verdict("stable", EQUIVALENT if g1 == g2 else NOT_EQUIVALENT, (g1, g2), groups, flags)
    if not all(flags):
        out["reason"] = "simplicity hypothesis fails on an input; verdict carries that caveat"
    return out


def _k0_and_unit_order(G):
    # one decomposition per graph, released before the next graph's
    M, snf = _decompose(G)
    return snf.cokernel, _unit_position(G, M, snf)[0]


def classify_strict(G1, G2):
    """Strict-isomorphism verdict: isomorphic exactly when the Betti
    numbers and the unit-class orders agree.  If the simplicity hypothesis
    fails on either side the verdict is INDETERMINATE."""
    g1 = _require_genus(G1, 2, _CLASSIFY_MESSAGE)
    g2 = _require_genus(G2, 2, _CLASSIFY_MESSAGE)
    groups, orders = zip(_k0_and_unit_order(G1), _k0_and_unit_order(G2))
    flags = (simplicity_flags(G1, g1)[2], simplicity_flags(G2, g2)[2])
    if not all(flags):
        reason = "simplicity hypothesis fails, so the unit-position criterion does not apply"
        return _verdict("strict", INDETERMINATE, (g1, g2), groups, flags,
                        unit_orders=list(orders), reason=reason)
    isomorphic = g1 == g2 and orders[0] == orders[1]
    verdict = ISOMORPHIC if isomorphic else NOT_ISOMORPHIC
    return _verdict("strict", verdict, (g1, g2), groups, flags, unit_orders=list(orders))


def boundary_algebra_compatible(G):
    """Whether the algebra is strictly isomorphic to the one-vertex model of
    the same Betti number: gcd(g - 1, |V|) = 1, equivalently unit order g - 1."""
    g = _require_genus(G, 2)
    return expected_invariants(G)[2] == g - 1


def ktheory_report(G):
    """Full invariant report with all cross-checks applied, as printed."""
    g = _require_genus(G, 1)
    M, snf = _decompose(G)
    group = snf.cokernel
    basis = snf.left_kernel
    rank = len(basis)
    expected_group, expected_rank, _ = expected_invariants(G)
    if group != expected_group:
        raise TheoremViolation(f"unexpected degree-zero group {group} for g = {g}")
    if rank != expected_rank:
        raise TheoremViolation(f"unexpected kernel rank {rank} for g = {g}")
    position = _unit_position(G, M, snf)
    irreducible, permutation, simple = simplicity_flags(G, g)
    return {
        "g": g,
        "vertices": G.vertex_count,
        "edges": len(G.edges),
        "k0": _group_json(group),
        "k1_rank": rank,
        "k1_basis": [list(row) for row in basis],
        "unit_order": None if position is None else position[0],
        "witnesses": {"unit_preimage": None if position is None else list(position[1])},
        "simplicity": {
            "irreducible": irreducible,
            "permutation": permutation,
            "simple_claim_applicable": simple,
        },
    }
