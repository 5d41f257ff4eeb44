"""Verification sweeps over small connected multigraphs.

Every structural identity the package promises is checked on every graph
of an exhaustive (or seeded random) family; the first counterexample is
reported as a reproducible graph file.  This doubles as the package's
empirical test bed: the theorems hold exactly, so any failure is a bug.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, permutations, product
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
    apply_operations,
    apply_row_operations_to_vector,
    determinant,
    hermite_normal_form,
    kernel_basis,
    mat_mul,
    mat_vec,
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
    edges_connect,
    format_graph,
    is_connected,
    is_stable,
    spanning_tree,
    valences,
)

__all__ = [
    "SweepConfig",
    "SweepFailure",
    "SweepReport",
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
    Returns (n, each round's signatures, least sorted edge multiset)."""
    n = G.vertex_count
    nbrs, loops = [[] for _ in range(n)], [0] * n
    for u, v in G.edges:
        if u == v:
            loops[u] += 1
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    sigs = [(len(nbrs[v]), loops[v]) for v in range(n)]
    rounds, cells, colour = [], 0, []
    while True:
        distinct = sorted(set(sigs))
        rounds.append(tuple(distinct))
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
    return (n, tuple(rounds), tuple(best))


def enumerate_connected(max_vertices, max_edges):
    """All connected multigraphs within the bounds, one per isomorphism
    class, loops and parallel edges included: the first of each class in
    the order the edge multisets are generated."""
    seen = set()
    out = []
    for n in range(1, max_vertices + 1):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(max(n - 1, 0), max_edges + 1):
            for combo in combinations_with_replacement(slots, m):
                if not edges_connect(n, combo):
                    continue
                G = Multigraph(n, combo)
                key = canonical_key(G)
                if key in seen:
                    continue
                seen.add(key)
                out.append(G)
    return out


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
    def group(self):  # cokernel of the Smith diagonal of 1 - A
        return AbelianGroup.from_diagonal(self.snf.diagonal, len(self.M))

    @cached_property
    def snf_transpose(self):
        return smith_normal_form(transpose(self.M))

    @cached_property
    def kernel(self):
        return ktheory._kernel_rows(self.snf)

    @cached_property
    def expected(self):  # (K0, kernel rank, unit order) as the theorem states them
        return ktheory.expected_invariants(self.graph)

    @cached_property
    def transcript(self):
        return ktheory.contraction_reduce(self.graph)

    @cached_property
    def unit(self):
        return solve_min_scalar(self.M, [1] * len(self.M), self.snf)


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
        H, _ = hermite_normal_form(basis)
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
    for e, (u, v) in enumerate(G.edges):
        if u == v:
            continue
        contracted = contract_edge(G, e)
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
    if ctx.g >= 2 and min(val) >= 2:
        _need(is_irreducible(A), "edge matrix must be irreducible without ends")
        _need(not is_permutation(A), "edge matrix must not be a permutation for g >= 2")
    return True


def check_snf_diagonal(ctx):
    if ctx.g < 1:
        return False
    snf = ctx.snf
    _need(
        mat_mul(mat_mul(snf.x, ctx.M), snf.y) == snf.d,
        "smith decomposition must multiply back",
    )
    _need(abs(determinant(snf.x)) == 1, "row transform must be unimodular")
    _need(abs(determinant(snf.y)) == 1, "column transform must be unimodular")
    g, size = ctx.g, len(ctx.M)
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
    _need(ctx.group == expected_group, f"degree-zero group {ctx.group} does not match g = {g}")
    basis = ctx.kernel
    rank = len(basis)
    _need(rank == expected_rank, f"kernel rank {rank} does not match g = {g}")
    Mt = transpose(ctx.M)
    for row in basis:
        _need(not any(mat_vec(Mt, row)), "kernel basis row not annihilated")
    _need(
        basis == kernel_basis(Mt),
        "kernel basis from the rows of X must equal the transposed route's",
    )
    return True


def check_cycle_space_lemma(ctx):
    if ctx.g < 2:
        return False
    _need(
        ktheory.phi_image_equals_kernel(ctx.graph),
        "lifted cycle lattice must equal the kernel lattice",
    )
    m = len(ctx.graph.edges)
    ends = classify_end_edges(ctx.graph)
    for row in ctx.kernel:
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
    c = mat_vec(ctx.snf.x, [1] * len(ctx.M))
    for smaller in range(1, lam):
        solvable = all(
            (c[i] == 0 if (i >= len(diag) or diag[i] == 0) else (smaller * c[i]) % diag[i] == 0)
            for i in range(len(ctx.M))
        )
        _need(not solvable, f"scalar {smaller} < {lam} must not be solvable")
    return True


def check_reduction_transcript(ctx):
    if ctx.g < 1:
        return False
    t = ctx.transcript
    size, g = t.size, t.genus
    replayed = apply_operations(ctx.M, t.operations)
    _need(
        all(
            replayed[i][j] == (t.final_diagonal[i] if i == j else 0)
            for i in range(size)
            for j in range(size)
        ),
        "replaying the transcript must reproduce the final diagonal",
    )
    ones = apply_row_operations_to_vector([1] * size, t.operations)
    _need(list(t.ones_image) == ones, "recorded ones-image must replay")
    _need(
        ones[size - g - 1] == g * ctx.graph.vertex_count,
        "the entry before the zero block must be g * |V|",
    )
    _need(all(ones[i] == 0 for i in range(size - g, size)), "last g entries must vanish")
    _need(
        AbelianGroup.from_diagonal(t.final_diagonal, size) == ctx.group,
        "transcript diagonal must match the smith diagonal canonically",
    )
    return True


def check_contraction_claim(ctx):
    G = ctx.graph
    nonloops = [e for e, (u, v) in enumerate(G.edges) if u != v]
    if not nonloops or ctx.g < 1:
        return False
    size = len(ctx.M)
    for e in nonloops:
        M2 = one_minus_edge_matrix(contract_edge(G, e))
        diag2 = smith_normal_form(M2).diagonal + [1, 1]
        _need(
            AbelianGroup.from_diagonal(diag2, size) == ctx.group,
            "contraction must split off a rank-2 unit block",
        )
    rng = random.Random(zlib.crc32(format_graph(G).encode()))
    shuffled = ktheory.contraction_reduce(G, rng=rng)
    _need(
        AbelianGroup.from_diagonal(shuffled.final_diagonal, size) == ctx.group,
        "final diagonal must not depend on the contraction order",
    )
    return True


def check_bass_identity(ctx):
    if ctx.g < 1:
        return False
    order = ihara_zeta.zeta_report(ctx.graph).ord_at_one  # raises on an edge/vertex mismatch
    rank = sum(1 for d in ctx.snf.diagonal if d)
    _need(order == len(ctx.M) - rank, "vanishing order must equal the corank of 1 - A")
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
        AbelianGroup.from_diagonal(ctx.snf_transpose.diagonal, len(ctx.M)) == ctx.group,
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


@dataclass(frozen=True)
class SweepFailure:
    check: str
    message: str
    graph_text: str


@dataclass
class SweepReport:
    graphs_checked: int = 0
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def run_sweep(config=SweepConfig(), max_failures=10):
    """Run every check on every graph.  A mismatch a check finds itself and
    a TheoremViolation raised by the library code it calls are both
    recorded as that check's counterexample."""
    if config.mode == "exhaustive":
        graphs = enumerate_connected(config.max_vertices, config.max_edges)
    elif config.mode == "random":
        graphs = random_connected(config)
    else:
        raise ValueError(f"unknown sweep mode {config.mode!r}")
    report = SweepReport(counts={name: 0 for name in CHECK_NAMES})
    for G in graphs:
        report.graphs_checked += 1
        ctx = GraphChecks(G)
        for name, fn in CHECKS:
            try:
                applied = fn(ctx)
            except (CheckFailed, TheoremViolation) as exc:
                report.failures.append(SweepFailure(name, str(exc), format_graph(G)))
                if len(report.failures) >= max_failures:
                    return report
            else:
                if applied:
                    report.counts[name] += 1
    return report
