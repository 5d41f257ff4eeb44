"""Verification sweeps over small connected multigraphs.

Every structural identity the package promises is checked on every graph
of an exhaustive (or seeded random) family; the first counterexample is
reported as a reproducible graph file.  This doubles as the package's
empirical test bed: the theorems hold exactly, so any failure is a bug.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import gcd

from . import ihara_zeta, ktheory
from .edge_operator import (
    edge_matrix,
    is_irreducible,
    is_permutation,
    one_minus_edge_matrix,
    reversal,
)
from .errors import DomainError, TheoremViolation
from .exact_linalg import (
    AbelianGroup,
    _min_scalar,
    apply_operations,
    apply_row_operations_to_vector,
    hermite_normal_form,
    mat_vec,
    poly_matrix_det,
    poly_mul,
    poly_pow,
    poly_trim,
    smith_normal_form,
    solve_min_scalar,
    transpose,
)
from .multigraph import (
    Multigraph,
    betti_number,
    boundary,
    classify_end_edges,
    contract_edge,
    cycle_basis,
    format_graph,
    is_connected,
    is_stable,
    spanning_tree,
    valences,
)

__all__ = [
    "SweepConfig",
    "canonical_key",
    "enumerate_connected",
    "random_connected",
    "run_sweep",
    "CHECK_NAMES",
]


@dataclass(frozen=True)
class SweepConfig:
    max_vertices: int = 4
    max_edges: int = 6
    mode: str = "exhaustive"  # or "random"
    sample_count: int = 200
    seed: int = 0


def canonical_key(G):
    """Isomorphism-class key: equal exactly for isomorphic graphs.

    Colour refinement (Weisfeiler-Leman 1968) starts from (non-loop valence,
    loop count) and recolours each vertex by (colour, sorted neighbour
    colours, once per edge) until the cell count stops growing.  A colour
    is a rank among the round's distinct signatures, never a label.  Cell k
    gets the next block of labels, and only in-cell permutations are tried.
    Returns (n, least sorted edge multiset): the multiset is a relabelling of
    G, so with n it fixes the class."""
    n = G.vertex_count
    nbrs, loops = [[] for _ in range(n)], [0] * n
    for u, v in G.edges:
        if u == v:
            loops[u] += 1
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    sigs = [(len(nbrs[v]), loops[v]) for v in range(n)]
    cells, colour = 0, []
    while True:
        distinct = sorted(set(sigs))
        if len(distinct) == cells:
            break
        cells = len(distinct)
        rank = {s: c for c, s in enumerate(distinct)}
        colour = [rank[s] for s in sigs]
        if cells == n:
            break
        sigs = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n)]
    order = sorted(range(n), key=colour.__getitem__)
    position = {v: i for i, v in enumerate(order)}
    edges = [(position[u], position[v]) for u, v in G.edges]
    starts = [i for i in range(n) if i == 0 or colour[order[i]] != colour[order[i - 1]]]
    blocks = [range(a, b) for a, b in zip(starts, starts[1:] + [n])]
    labellings = (sum(combo, ()) for combo in product(*map(permutations, blocks)))
    best = min(
        sorted((a, b) if a <= b else (b, a) for a, b in ((lab[u], lab[v]) for u, v in edges))
        for lab in labellings
    )
    return (n, tuple(best))


def enumerate_connected(max_vertices, max_edges):
    """All connected multigraphs within the bounds, one per isomorphism
    class, loops and parallel edges included.  Classes with m edges on n
    vertices grow from those with m - 1 by a slot (u, v) on n vertices or a
    pendant edge (u, n - 1) on n - 1; a connected graph with an edge has a
    non-bridge edge (a loop counts) or a leaf whose removal leaves a
    connected parent, so all are reached.  Each class is its least edge
    multiset over all n! labellings, its first in combinations_with_replacement
    order, and the list is sorted by (n, m, edges) as that walk meets them."""
    level = {(1, 0): {()}} if max_vertices >= 1 and max_edges >= 0 else {}
    for m, n in product(range(1, max_edges + 1), range(1, max_vertices + 1)):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        grown = [p + (s,) for p in level.get((n, m - 1), ()) for s in slots]
        grown += [p + ((u, n - 1),) for p in level.get((n - 1, m - 1), ()) for u in range(n - 1)]
        level[n, m] = {canonical_key(Multigraph(n, edges))[1] for edges in grown}
    least = sorted(
        (n, m, min(sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u]) for u, v in edges)
                   for p in permutations(range(n))))
        for (n, m), classes in level.items() for edges in classes
    )
    return [Multigraph(n, edges) for n, _, edges in least]


def random_connected(config):
    """Reproducible random sample of connected multigraphs within bounds."""
    rng = random.Random(config.seed)
    feasible = [
        n for n in range(1, config.max_vertices + 1) if max(n - 1, 1) <= config.max_edges
    ]
    if not feasible:
        raise DomainError("bounds admit no connected graph with at least one edge")
    out = []
    while len(out) < config.sample_count:
        n = rng.choice(feasible)
        m = rng.randint(max(n - 1, 1), config.max_edges)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
        G = Multigraph(n, edges)
        if is_connected(G):
            out.append(G)
    return out


class CheckFailed(AssertionError):
    pass


def _need(condition, message):
    if not condition:
        raise CheckFailed(message)


class GraphChecks:
    """Lazily cached per-graph computations shared by the checks."""

    def __init__(self, graph):
        self.graph = graph

    @cached_property
    def g(self):
        return betti_number(self.graph)

    @cached_property
    def A(self):
        return edge_matrix(self.graph)

    @cached_property
    def M(self):
        return one_minus_edge_matrix(self.graph)

    @cached_property
    def snf(self):
        return smith_normal_form(self.M)

    @cached_property
    def snf_transpose(self):
        return smith_normal_form(transpose(self.M))

    @cached_property
    def expected(self):  # (K0, kernel rank, unit order) as the theorem states them
        return ktheory.expected_invariants(self.graph)

    @cached_property
    def transcript(self):
        return ktheory.contraction_reduce(self.graph, M=self.M)

    @cached_property
    def unit(self):
        return solve_min_scalar(self.M, [1] * len(self.M), self.snf)

    @cached_property
    def contractions(self):  # G with one non-loop edge contracted, for each such edge
        G = self.graph
        return [contract_edge(G, e) for e, (u, v) in enumerate(G.edges) if u != v]


def check_graph_structure(ctx):
    G = ctx.graph
    n, m = G.vertex_count, len(G.edges)
    g = ctx.g
    _need(g == m - n + 1, "Betti number must be m - n + 1")
    _need(len(spanning_tree(G)) == n - 1, "spanning tree must have n - 1 edges")
    basis = cycle_basis(G)
    _need(len(basis) == g, "cycle basis must have g elements")
    for c in basis:
        _need(not any(boundary(G, c)), "cycle basis vector outside the boundary kernel")
    if basis:
        H = hermite_normal_form(basis)
        _need(
            sum(1 for row in H if any(row)) == g,
            "cycle basis must have full rank g",
        )
    ends = classify_end_edges(G)
    if G.edges:  # the edgeless single vertex has valence 0 but nothing to strip
        _need(
            (not ends) == (min(valences(G)) >= 2),
            "end edges exist exactly when some valence is below 2",
        )
    else:
        _need(not ends, "no edges means no end edges")
    stable = is_stable(G)
    for contracted in ctx.contractions:
        _need(is_connected(contracted), "contraction must preserve connectivity")
        _need(
            betti_number(contracted) == g
            and contracted.vertex_count == n - 1
            and len(contracted.edges) == m - 1,
            "contraction must drop one vertex and one edge, keeping g",
        )
        if stable:
            _need(is_stable(contracted), "contracting a stable graph must stay stable")
    return True


def check_edge_matrix_structure(ctx):
    G = ctx.graph
    m = len(G.edges)
    A = ctx.A
    val = valences(G)
    ends = [(u, v) for u, v in G.edges] + [(v, u) for u, v in G.edges]
    for k, (_, t) in enumerate(ends):
        _need(sum(A[k]) == val[t] - 1, "row sum must be the terminal valence minus 1")
    total = sum(sum(row) for row in A)
    _need(
        total == sum(val[t] - 1 for _, t in ends),
        "entry total must match the valence sum",
    )
    for i in range(2 * m):
        for j in range(2 * m):
            _need(
                A[i][j] == A[reversal(j, m)][reversal(i, m)],
                "path reversal symmetry must hold",
            )
    if G.edges:  # the empty matrix of the edgeless vertex is vacuously a permutation
        irreducible, permutation, _ = ktheory.simplicity_flags(G, ctx.g)
        _need(is_irreducible(A) == irreducible, "edge matrix must be irreducible without ends"
              if irreducible else "edge matrix must be reducible with ends or g < 2")
        _need(is_permutation(A) == permutation, "edge matrix must not be a permutation for g >= 2"
              if ctx.g >= 2 else "edge matrix must be a permutation exactly for a cycle")
    return True


_ARITY = {"row_add": 4, "row_swap": 3, "row_neg": 2, "col_add": 4, "col_swap": 3, "col_neg": 2}


def check_snf_diagonal(ctx):
    """The log is the certificate: each operation elementary (int indices
    in range, no line added to itself) makes x and y unimodular, and its
    replay through apply_operation, not the in-place clears, must give d."""
    if ctx.g < 1:
        return False
    snf, size, g = ctx.snf, len(ctx.M), ctx.g
    for op in snf.operations:
        if not (_ARITY.get(op[0]) == len(op) and all(type(a) is int for a in op[1:])
                and all(0 <= i < size for i in op[1:3]) and (len(op) < 4 or op[1] != op[2])):
            side = "row" if op[0].startswith("row_") else "column"
            raise CheckFailed(f"{side} transform must be unimodular")
    _need(
        apply_operations(ctx.M, snf.operations) == snf.d,
        "smith decomposition must multiply back",
    )
    _need(
        snf.diagonal == [1] * (size - g - 1) + [g - 1] + [0] * g,
        f"diagonal of 1 - A must be units, g - 1, then g zeros (g = {g})",
    )
    return True


def check_ktheory_groups(ctx):
    if ctx.g < 1:
        return False
    g = ctx.g
    expected_group, expected_rank, _ = ctx.expected
    group = ctx.snf.cokernel
    _need(group == expected_group, f"degree-zero group {group} does not match g = {g}")
    basis = ctx.snf.left_kernel
    rank = len(basis)
    _need(rank == expected_rank, f"kernel rank {rank} does not match g = {g}")
    Mt = transpose(ctx.M)
    for row in basis:
        _need(not any(mat_vec(Mt, row)), "kernel basis row not annihilated")
    _need(
        basis == ctx.snf_transpose.right_kernel,
        "kernel basis from the rows of X must equal the transposed route's",
    )
    return True


def check_cycle_space_lemma(ctx):
    if ctx.g < 2:
        return False
    # cycle_lattice certifies its rows on the successor lists; the dense
    # 1 - A^t and the transposed route are its oracles
    lattice = ktheory.cycle_lattice(ctx.graph)
    Mt = transpose(ctx.M)
    for row in lattice:
        _need(not any(mat_vec(Mt, row)), "cycle image must be annihilated by 1 - T")
    _need(
        lattice == ctx.snf_transpose.right_kernel,
        "lifted cycle lattice must equal the kernel lattice",
    )
    m = len(ctx.graph.edges)
    ends = classify_end_edges(ctx.graph)
    for row in ctx.snf.left_kernel:
        for e in ends:
            _need(
                row[e] == 0 and row[e + m] == 0,
                "end edges must not occur in kernel vectors",
            )
    return True


def check_g1_kernel_generators(ctx):
    if ctx.g != 1:
        return False
    ktheory.g1_kernel_generators(ctx.graph)  # raises on any violation
    return True


def check_unit_order(ctx):
    if ctx.g < 1:
        return False
    G, g = ctx.graph, ctx.g
    result = ctx.unit
    if g == 1:
        _need(result is None, "no positive multiple of the unit lies in the image")
        return True
    _need(result is not None, "unit order must be finite for g >= 2")
    lam, witness = result
    closed_v = ctx.expected[2]
    closed_e = (g - 1) // gcd(g - 1, len(G.edges))
    _need(lam == closed_v == closed_e, "solver and closed forms must agree")
    _need(
        mat_vec(ctx.M, witness) == [lam] * len(ctx.M),
        "unit witness must satisfy (1 - A) x = lam * ones",
    )
    # minimality, brute force: no smaller positive scalar is solvable
    diag = ctx.snf.diagonal
    c = apply_row_operations_to_vector([1] * len(ctx.M), ctx.snf.operations)
    for smaller in range(1, lam):
        solvable = all((smaller * v) % d == 0 if d else v == 0 for d, v in zip(diag, c))
        _need(not solvable, f"scalar {smaller} < {lam} must not be solvable")
    return True


def check_reduction_transcript(ctx):
    # contraction_reduce certifies its log by one replay on 1 - A and on the
    # ones vector; here its diagonal and unit order meet the Smith route's
    if ctx.g < 1:
        return False
    t = ctx.transcript
    _need(
        AbelianGroup.from_diagonal(t.final_diagonal, t.size) == ctx.snf.cokernel,
        "transcript diagonal must match the smith diagonal canonically",
    )
    lam = _min_scalar(t.final_diagonal, t.ones_image)
    _need(lam == (ctx.unit and ctx.unit[0]), "transcript unit order must match the smith route's")
    return True


def check_contraction_claim(ctx):
    G = ctx.graph
    if ctx.g < 1 or not ctx.contractions:
        return False
    group = ctx.snf.cokernel
    for contracted in ctx.contractions:
        M2 = one_minus_edge_matrix(contracted)
        _need(
            smith_normal_form(M2).cokernel == group,
            "contraction must split off a rank-2 unit block",
        )
    rng = random.Random(zlib.crc32(format_graph(G).encode()))
    shuffled = ktheory.contraction_reduce(G, rng=rng, M=ctx.M)
    _need(
        AbelianGroup.from_diagonal(shuffled.final_diagonal, len(ctx.M)) == group,
        "final diagonal must not depend on the contraction order",
    )
    return True


def _vertex_poly_matrix(G):
    """I - u*A_V + u^2*(D - I), D the row sums of A_V, in coefficient lists:
    the Bass check's second algorithm takes its determinant by Bareiss."""
    return [
        [poly_trim([1, -a, sum(row) - 1] if i == j else [0, -a]) for j, a in enumerate(row)]
        for i, row in enumerate(ihara_zeta.vertex_adjacency_matrix(G))
    ]


def check_bass_identity(ctx):
    if ctx.g < 1:
        return False
    report = ihara_zeta.zeta_report(ctx.graph)  # raises on an edge/vertex mismatch
    corank = len(ctx.M) - sum(1 for d in ctx.snf.diagonal if d)
    _need(report["ord_at_one"] == corank, "vanishing order must equal the corank of 1 - A")
    bareiss = poly_matrix_det(_vertex_poly_matrix(ctx.graph))
    bareiss = poly_mul(poly_pow([1, 0, -1], ctx.g - 1), bareiss)
    _need(bareiss == report["vertex_poly"], "vertex side must match its Bareiss determinants")
    return True


def check_boundary_compatibility(ctx):
    if ctx.g < 2:
        return False
    compatible = ktheory.boundary_algebra_compatible(ctx.graph)
    lam = ctx.unit[0]
    _need(
        compatible == (lam == ctx.g - 1),
        "coprimality criterion must match unit order g - 1",
    )
    return True


def check_convention_independence(ctx):
    if ctx.g < 1:
        return False
    other = solve_min_scalar(transpose(ctx.M), [1] * len(ctx.M), ctx.snf_transpose)
    mine = ctx.unit
    _need(
        (mine is None) == (other is None)
        and (mine is None or mine[0] == other[0]),
        "unit order must not depend on the transpose convention",
    )
    _need(
        ctx.snf_transpose.cokernel == ctx.snf.cokernel,
        "smith diagonal must not depend on the transpose convention",
    )
    return True


CHECKS = [
    ("graph_structure", check_graph_structure),
    ("edge_matrix_structure", check_edge_matrix_structure),
    ("snf_diagonal", check_snf_diagonal),
    ("ktheory_groups", check_ktheory_groups),
    ("cycle_space_lemma", check_cycle_space_lemma),
    ("g1_kernel_generators", check_g1_kernel_generators),
    ("unit_order", check_unit_order),
    ("reduction_transcript", check_reduction_transcript),
    ("contraction_claim", check_contraction_claim),
    ("bass_identity", check_bass_identity),
    ("boundary_compatibility", check_boundary_compatibility),
    ("convention_independence", check_convention_independence),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_sweep(config=SweepConfig(), max_failures=10):
    """Run every check on every graph, as the printed report.  A mismatch a
    check finds itself and a TheoremViolation raised by the library code it
    calls are both recorded as that check's counterexample."""
    if config.mode == "exhaustive":
        graphs = enumerate_connected(config.max_vertices, config.max_edges)
    elif config.mode == "random":
        graphs = random_connected(config)
    else:
        raise ValueError(f"unknown sweep mode {config.mode!r}")
    if not graphs:
        raise DomainError("bounds admit no graph to check")
    counts = {name: 0 for name in CHECK_NAMES}
    failures = []
    report = {"graphs_checked": 0, "checks": counts, "failures": failures, "ok": True}
    for G in graphs:
        report["graphs_checked"] += 1
        ctx = GraphChecks(G)
        for name, fn in CHECKS:
            try:
                applied = fn(ctx)
            except (CheckFailed, TheoremViolation) as exc:
                failures.append({"check": name, "message": str(exc), "graph": format_graph(G)})
                report["ok"] = False
                if len(failures) >= max_failures:
                    return report
            else:
                if applied:
                    counts[name] += 1
    return report
