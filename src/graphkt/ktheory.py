"""K-theory of the edge operator's Cuntz-Krieger algebra, from graph data.

Both invariant groups are read off graph data with exact integer
arithmetic: the cokernel of 1 - A^t gives the degree-zero group, the kernel
of the operator (the right kernel of 1 - A^t, since the operator acts on
column vectors as the transpose of A) gives the degree-one group.  The
order of the unit class is the least positive lam with lam * (1, ..., 1) in
the image of 1 - A.  Every report reads them off one Smith form
X (1 - A) Y = D (``_decompose``): coker D, the least lam with D z = lam X 1
solvable and the witness Y z, made canonical.  The contraction transcript
(``contraction_reduce``) is that route's oracle in the sweep and the tests.
The kernel needs no reduction: for g >= 2 it is the lifted cycle lattice,
and the lifted fundamental cycles of one spanning tree are its Hermite
basis (``cycle_lattice``); for g = 1 two explicit generators span it.  Each
basis is certified on the successor lists, and the Smith diagonal fixes the
kernel's rank.  A second, independent reduction of 1 - A^t cross-checks the
degree-zero group.  Identities that must hold between independently
computed quantities are re-verified at runtime and raise TheoremViolation
on mismatch; that always means a bug, never bad input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .edge_operator import one_minus_edge_matrix, oriented_edges, successors
from .errors import DomainError, TheoremViolation
from .exact_linalg import (
    AbelianGroup,
    _min_scalar,
    _replay_vector,
    apply_operations,
    apply_row_operations_to_vector,
    cokernel,
    hermite_normal_form,
    smith_normal_form,
    transpose,
)
from .multigraph import _incidence, betti_number, cycle_basis, valences

__all__ = [
    "k0",
    "k1",
    "cycle_lattice",
    "g1_kernel_generators",
    "ReductionTranscript",
    "contraction_reduce",
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
    """(K0, unit order, snf, x 1) for M = 1 - A: snf is x P M y = D, P the row
    reversal, for ``cokernel``'s reason with successors for predecessors:
    row e of M is -1 at e's successors, so reversed, the unit scan pivots on
    a successor instead of the diagonal and does not fill in.  P 1 = 1, so
    the log solves M w = lam * 1 as it stands.  K0 is cross-checked against
    the cokernel of 1 - A^t, reduced first so that one reduction is held at
    a time, and lam against the closed form."""
    M = one_minus_edge_matrix(G)
    transposed = cokernel(transpose(M))
    snf = smith_normal_form(M[::-1])
    if snf.cokernel != transposed:
        raise TheoremViolation("cokernel must not depend on the transpose convention")
    ones = apply_row_operations_to_vector([1] * len(M), snf.operations)
    found, expected = _min_scalar(snf.diagonal, ones), expected_invariants(G)[2]
    if found != expected:
        raise TheoremViolation(f"unit order solver found {found}, closed form gives {expected}")
    return transposed, found, snf, ones


def k0(G):
    """Cokernel of 1 - A^t on Z^(2m), cross-computed from 1 - A."""
    return _decompose(G)[0]


def k1(G):
    """(rank, basis) of the kernel lattice of the operator 1 - T.

    The basis rows are in Hermite normal form; the rank is the first Betti
    number for g >= 2 and 2 for g = 1.
    """
    _require_genus(G, 1)
    basis = smith_normal_form(one_minus_edge_matrix(G)).left_kernel
    return len(basis), basis


def _lift(cycle):
    """The lift of a cycle into the kernel of 1 - T: coefficient k on
    geometric edge i becomes +k on oriented index i and -k on its reversal."""
    return list(cycle) + [-k for k in cycle]


def _annihilated(succ, v):
    """v, after checking (1 - T) v = 0 on the successor lists: T sends v[j]
    to every successor of oriented edge j, and v must be its own image."""
    image = [0] * len(v)
    for j, k in enumerate(v):
        if k:
            for j2 in succ[j]:
                image[j2] += k
    if image != v:
        raise TheoremViolation("kernel vector must be annihilated by 1 - T")
    return v


def _unit_hermite(rows):
    """rows, after checking that they are a Hermite basis with pivots 1: each
    row's first nonzero entry is 1, the pivots increase and every other row
    is 0 at them.  Such rows span a saturated lattice, since a lattice
    vector's coordinates are its entries at the pivots."""
    pivots = [next((j for j, k in enumerate(row) if k), -1) for row in rows]
    if pivots != sorted(set(pivots)) or any(
        row[p] != 1 or sum(1 for q in pivots if row[q]) != 1 for p, row in zip(pivots, rows)
    ):
        raise TheoremViolation("kernel rows must be a Hermite basis with unit pivots")
    return rows


def cycle_lattice(G):
    """Hermite basis of the lifted cycle lattice, the image of ``_lift`` on
    the cycle space; for a connected g >= 2 graph it equals ker(1 - T).  It is
    the lifted ``cycle_basis``: in its tree the cycle of a non-tree edge e
    has no tree edge below e, so row e is 1 at e and 0 before e and at the
    other non-tree edges.  Both are checked, in O(g m + nnz(A))."""
    _require_genus(G, 2, "the kernel identification is proven only for g >= 2")
    succ = successors(G)
    return _unit_hermite([_annihilated(succ, _lift(c)) for c in cycle_basis(G)])


def g1_kernel_generators(G):
    """Two kernel elements for a g = 1 graph that span the whole kernel: the
    lifted fundamental cycle, and the cycle as oriented edges plus every
    non-cycle edge oriented away from the cycle."""
    return _g1_kernel(G)[0]


def _g1_kernel(G):
    """(generators, their checked Hermite basis) for ``g1_kernel_generators``."""
    g = betti_number(G)
    if g != 1:
        raise DomainError("g = 1 required")
    c = cycle_basis(G)[0]
    m = len(G.edges)
    if any(k not in (-1, 0, 1) for k in c):
        raise TheoremViolation("fundamental cycle with non-unit coefficient")
    oriented = [int(k == 1) for k in c] + [int(k == -1) for k in c]
    succ = successors(G)
    lifted = _annihilated(succ, _lift(c))

    # distance from the cycle, by a breadth-first walk of the incidence lists
    cycle_vertices = {x for i, ends in enumerate(G.edges) if c[i] for x in ends}
    dist = [0 if x in cycle_vertices else None for x in range(G.vertex_count)]
    queue = deque(cycle_vertices)
    inc = _incidence(G)
    while queue:
        u = queue.popleft()
        for _, w in inc[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)

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

    _annihilated(succ, second)
    # pivots 1 make the two independent and saturated, and the kernel has rank 2
    return (lifted, second), _unit_hermite(hermite_normal_form([lifted, second]))


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


def contraction_reduce(G, rng=None, M=None):
    """Diagonalize M = 1 - A (built if not given) by the contraction schedule,
    recording every elementary operation; replay it once on a copy to certify.

    Each round picks a non-loop edge gamma = (u, v) of the contracted graph H
    (of least valence sum, loops counting 2, then lowest index; or drawn from
    ``rng``), adds its two oriented rows to the rows of the edges flowing into
    their respective origins (clearing the two columns), clears the two rows
    with column additions, and continues on the contracted graph; only loops
    on a single vertex then remain and that block is reduced directly.  A final permutation sorts
    the diagonal: units first, then the single entry of magnitude g - 1,
    then the g zero rows.  The resulting diagonal is independent of the
    contraction order.

    The active block is 1 - A of H in every round (the state lemma), so the
    rounds read their operations off H alone: row gamma holds -1 at each
    edge leaving v but gamma-bar.  H is never built: it is the map of the
    original vertices to its vertices and the list of its surviving edges.
    One replay of the finished log on 1 - A and on the all-ones vector
    certifies it.
    """
    n_orig = G.vertex_count
    g = _require_genus(G, 1)
    m = len(G.edges)
    two_m = 2 * m
    ops = []

    def record(*op):
        ops.append(op)

    ends = oriented_edges(G)
    at = list(range(n_orig))  # original vertex -> its vertex of H
    val = valences(G)  # valence in H, at the vertices of H
    alive = list(range(m))  # the edges of H, in increasing index
    frozen = []
    contraction_order = []

    while True:
        nonloops = [e for e in alive if at[ends[e][0]] != at[ends[e][1]]]
        if not nonloops:
            break
        gamma = rng.choice(nonloops) if rng is not None else min(
            nonloops, key=lambda e: val[at[ends[e][0]]] + val[at[ends[e][1]]])
        gamma_bar = gamma + m
        u, v = at[ends[gamma][0]], at[ends[gamma][1]]
        val[u] += val[v] - 2
        alive.remove(gamma)
        # H's other oriented edges in its index order: contract_edge keeps
        # the surviving edges in relative order
        rest = alive + [k + m for k in alive]
        for k in rest:
            t = at[ends[k][1]]
            if t == u:
                record("row_add", k, gamma, 1)
            elif t == v:
                record("row_add", k, gamma_bar, 1)
        for source, head in ((gamma, v), (gamma_bar, u)):
            for f in rest:
                if at[ends[f][0]] == head:
                    record("col_add", f, source, 1)
        frozen.extend((gamma, gamma_bar))
        contraction_order.append(gamma)
        at = [u if w == v else w for w in at]

    # single-vertex block: surviving loops, both orientations
    loops = alive
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

    for kind, order in (("row_swap", row_order), ("col_swap", col_order)):
        current = list(range(two_m))
        for p, want in enumerate(order):
            q = current.index(want)
            if q != p:
                record(kind, p, q)
                current[p], current[q] = current[q], current[p]

    R = apply_operations(one_minus_edge_matrix(G) if M is None else M, ops)
    diag = [R[i][i] for i in range(two_m)]
    if any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(R)):
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


def classify_strict(G1, G2):
    """Strict-isomorphism verdict: isomorphic exactly when the Betti
    numbers and the unit-class orders agree.  If the simplicity hypothesis
    fails on either side the verdict is INDETERMINATE."""
    g1 = _require_genus(G1, 2, _CLASSIFY_MESSAGE)
    g2 = _require_genus(G2, 2, _CLASSIFY_MESSAGE)
    groups, orders = zip(_decompose(G1)[:2], _decompose(G2)[:2])
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


def _canonical_witness(G, lam, snf, ones, basis):
    """The one x with (1 - A) x = lam * 1 that is 0 at every non-tree edge.
    y z, z = lam D^-1 (x 1), replayed off the log of ``_decompose``, solves
    it, and the solutions differ by the right kernel of 1 - A: for g >= 2
    the lifted cycle lattice, since A^t = R A R for the reversal R and R
    negates a lifted cycle.  Each row of ``cycle_lattice`` has pivot 1 at
    its non-tree edge and 0 at the others, so subtracting x[p] times each
    row leaves the solution that is 0 at every pivot.  Both are checked, the
    equation on the successor lists, in O(g m + nnz(A))."""
    z = [lam * v // d if d else 0 for d, v in zip(snf.diagonal, ones)]
    x = _replay_vector(z, snf.operations, "col_")
    pivots = [next(j for j, k in enumerate(row) if k) for row in basis]
    for p, row in zip(pivots, basis):
        k = x[p]
        if k:
            x = [a - k * b for a, b in zip(x, row)]
    if any(x[p] for p in pivots) or any(
        a - sum(x[f] for f in succ) != lam for a, succ in zip(x, successors(G))
    ):
        raise TheoremViolation("unit witness must solve (1 - A) x = lam * 1 and vanish "
                               "at the non-tree edges")
    return x


def ktheory_report(G):
    """Full invariant report with all cross-checks applied, as printed."""
    g = _require_genus(G, 1)
    group, order, snf, ones = _decompose(G)
    basis = cycle_lattice(G) if g >= 2 else _g1_kernel(G)[1]
    rank = len(basis)
    expected_group, expected_rank, _ = expected_invariants(G)
    if group != expected_group:
        raise TheoremViolation(f"unexpected degree-zero group {group} for g = {g}")
    if rank != expected_rank:
        raise TheoremViolation(f"unexpected kernel rank {rank} for g = {g}")
    witness = None if order is None else _canonical_witness(G, order, snf, ones, basis)
    irreducible, permutation, simple = simplicity_flags(G, g)
    return {
        "g": g,
        "vertices": G.vertex_count,
        "edges": len(G.edges),
        "k0": _group_json(group),
        "k1_rank": rank,
        "k1_basis": [list(row) for row in basis],
        "unit_order": order,
        "witnesses": {"unit_preimage": witness},
        "simplicity": {
            "irreducible": irreducible,
            "permutation": permutation,
            "simple_claim_applicable": simple,
        },
    }
