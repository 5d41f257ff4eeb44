"""Acceptance criteria, one test per criterion, all exact.

The shared sweep is every connected multigraph with at most 4 vertices and
6 edges (loops and parallel edges included), one representative per
isomorphism class.  Each test prints a PASS line on success (visible with
pytest -s).
"""

import random
import time
from dataclasses import dataclass
from math import gcd

import pytest

from graphkt import (
    classify_stable,
    classify_strict,
    generate_chain,
    generate_flower,
    generate_theta,
)
from graphkt.edge_operator import one_minus_edge_matrix
from graphkt.exact_linalg import (
    apply_operations,
    apply_row_operations_to_vector,
    hermite_normal_form,
    mat_vec,
    smith_normal_form,
    solve_min_scalar,
)
from graphkt.ihara_zeta import edge_charpoly, ihara_rhs, vanishing_order_at_one
from graphkt.ktheory import _decompose, contraction_reduce, k0, k1
from graphkt.multigraph import (
    betti_number,
    classify_end_edges,
    contract_edge,
    cycle_basis,
    is_stable,
)
from graphkt.sweep import enumerate_connected


def canonical(diag, size):
    torsion = tuple(abs(d) for d in diag if abs(d) >= 2)
    zeros = size - sum(1 for d in diag if d)
    return torsion, zeros


def expected_canonical(g, size):
    # diag(1^(2m-g-1), g-1, 0^g) canonicalized: g = 1 turns the g-1 entry
    # into a second zero, g = 2 absorbs it into the units
    if g == 1:
        return (), 2
    return ((g - 1,) if g >= 3 else ()), g


@dataclass
class Record:
    graph: object
    g: int
    size: int
    diagonal: list
    ends: set
    kernel: list
    unit: object  # (lam, witness) or None


@pytest.fixture(scope="module")
def sweep_graphs():
    return enumerate_connected(4, 6)


@pytest.fixture(scope="module")
def records(sweep_graphs):
    out = []
    for G in sweep_graphs:
        g = betti_number(G)
        if g < 1:
            continue
        M = one_minus_edge_matrix(G)
        out.append(
            Record(
                graph=G,
                g=g,
                size=len(M),
                diagonal=smith_normal_form(M).diagonal,
                ends=classify_end_edges(G),
                kernel=k1(G)[1],
                unit=solve_min_scalar(M, [1] * len(M)),
            )
        )
    return out


def test_criterion_01_snf_theorem(sweep_graphs):
    started = time.time()
    checked = 0
    for G in sweep_graphs:
        g = betti_number(G)
        if g < 1:
            continue
        M = one_minus_edge_matrix(G)
        diag = smith_normal_form(M).diagonal
        assert canonical(diag, len(M)) == expected_canonical(g, len(M))
        checked += 1
    elapsed = time.time() - started
    assert checked > 200
    print(
        f"PASS criterion 1: SNF of 1-A is diag(1^(2m-g-1), g-1, 0^g) on "
        f"{checked} graphs in {elapsed:.1f}s"
    )


def test_criterion_02_ktheory_groups(records):
    for r in records:
        group = k0(r.graph)
        expected_free = r.g if r.g >= 2 else 2
        expected_torsion = (r.g - 1,) if r.g >= 3 else ()
        assert (group.free_rank, group.torsion) == (expected_free, expected_torsion)
        assert len(r.kernel) == expected_free
    print(f"PASS criterion 2: K0 = Z^g + Z/(g-1) and K1 rank on {len(records)} graphs")


def test_criterion_03_cycle_space_lemma(records):
    checked = 0
    for r in records:
        if r.g < 2:
            continue
        # each cycle c lifts to (c, -c) on the oriented edges
        rows = [c + [-k for k in c] for c in cycle_basis(r.graph)]
        H = hermite_normal_form(rows)
        assert [row for row in H if any(row)] == r.kernel
        m = len(r.graph.edges)
        for row in r.kernel:
            for e in r.ends:
                assert row[e] == 0 and row[e + m] == 0
        checked += 1
    print(f"PASS criterion 3: cycle lattice = ker(1-T), ends absent, on {checked} graphs")


def test_criterion_04_unit_order(records):
    checked = 0
    for r in records:
        if r.g < 2:
            continue
        assert r.unit is not None
        lam, witness = r.unit
        n, m = r.graph.vertex_count, len(r.graph.edges)
        assert lam == (r.g - 1) // gcd(r.g - 1, n)
        assert lam == (r.g - 1) // gcd(r.g - 1, m)
        M = one_minus_edge_matrix(r.graph)
        assert mat_vec(M, witness) == [lam] * r.size
        checked += 1
    print(f"PASS criterion 4: unit order = (g-1)/gcd(g-1,|V|) with witness on {checked} graphs")


def test_criterion_05_paper_examples():
    started = time.time()
    for g in range(2, 9):
        assert _decompose(generate_flower(g))[1] == g - 1
    for g in range(3, 9):
        expected = (g - 1) // 2 if g % 2 else g - 1
        assert _decompose(generate_theta(g))[1] == expected
    for g in range(2, 9):
        G = generate_chain(g)
        assert G.vertex_count == 2 * g - 2
        assert betti_number(G) == g
        assert is_stable(G)
    elapsed = time.time() - started
    assert elapsed < 10
    print(f"PASS criterion 5: flower/theta/chain families for g up to 8 in {elapsed:.1f}s")


def test_criterion_06_contraction_claim(records):
    rng = random.Random(0)
    eligible = [
        r for r in records if any(u != v for u, v in r.graph.edges)
    ]
    pairs = []
    for _ in range(200):
        r = rng.choice(eligible)
        nonloops = [e for e, (u, v) in enumerate(r.graph.edges) if u != v]
        pairs.append((r, rng.choice(nonloops)))
    for r, e in pairs:
        contracted = contract_edge(r.graph, e)
        M2 = one_minus_edge_matrix(contracted)
        diag2 = smith_normal_form(M2).diagonal + [1, 1]
        assert canonical(diag2, r.size) == canonical(r.diagonal, r.size)
    for r in {id(r): r for r, _ in pairs}.values():
        shuffled = contraction_reduce(r.graph, rng=rng)
        assert canonical(shuffled.final_diagonal, r.size) == canonical(
            r.diagonal, r.size
        )
    print("PASS criterion 6: contraction splits a unit block on 200 random pairs, order-independent")


def test_criterion_07_transcript(records):
    checked = 0
    for r in records:
        if r.g < 2:
            continue
        t = contraction_reduce(r.graph)
        M = one_minus_edge_matrix(r.graph)
        replayed = apply_operations(M, t.operations)
        size, g = t.size, t.genus
        assert all(
            replayed[i][j] == (t.final_diagonal[i] if i == j else 0)
            for i in range(size)
            for j in range(size)
        )
        ones = apply_row_operations_to_vector([1] * size, t.operations)
        assert ones == list(t.ones_image)
        assert all(ones[i] == 0 for i in range(size - g, size))
        assert ones[size - g - 1] == g * r.graph.vertex_count
        checked += 1
    print(f"PASS criterion 7: ones-image ends (..., g*|V|, 0^g) on {checked} graphs")


def test_criterion_08_ihara_bass(records):
    for r in records:
        edge_poly = edge_charpoly(r.graph)
        assert edge_poly == ihara_rhs(r.graph)
        order = vanishing_order_at_one(edge_poly)
        assert order == (r.g if r.g >= 2 else 2)
        rank = sum(1 for d in r.diagonal if d)
        assert order == r.size - rank
    print(f"PASS criterion 8: Bass identity and vanishing order on {len(records)} graphs")


def test_criterion_09_order_realization():
    G = generate_chain(7)
    stages = [G]
    while True:
        nonloops = [e for e, (u, v) in enumerate(stages[-1].edges) if u != v]
        if not nonloops:
            break
        stages.append(contract_edge(stages[-1], nonloops[0]))
    orders = [_decompose(S)[1] for S in stages]
    assert {o for o in orders} == {1, 2, 3, 6}  # every divisor of g - 1 = 6
    # same stable class throughout, strictly distinct somewhere
    for S in stages[1:]:
        assert classify_stable(stages[0], S)["verdict"] == "EQUIVALENT"
    low = next(S for S, o in zip(stages, orders) if o == 1)
    high = next(S for S, o in zip(stages, orders) if o == 6)
    assert classify_strict(low, high)["verdict"] == "NOT_ISOMORPHIC"
    print("PASS criterion 9: chain(7) stages realize unit orders {1, 2, 3, 6}")


def test_criterion_10_boundary_compatibility(records):
    checked = 0
    for r in records:
        if r.g < 2:
            continue
        compatible = gcd(r.g - 1, r.graph.vertex_count) == 1
        assert compatible == (r.unit[0] == r.g - 1)
        checked += 1
    print(f"PASS criterion 10: coprimality criterion matches unit order on {checked} graphs")
