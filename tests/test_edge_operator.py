import random

import pytest
from hypothesis import given, settings

from graphkt import Multigraph, generate_cycle, generate_flower, generate_theta
from graphkt.edge_operator import (
    MAX_EDGES,
    edge_matrix,
    is_irreducible,
    is_permutation,
    one_minus_edge_matrix,
    oriented_edges,
    reversal,
)
from graphkt.errors import DomainError
from graphkt.multigraph import betti_number, valences

from .strategies import connected_multigraphs


def test_oriented_edges_flower1():
    assert oriented_edges(generate_flower(1)) == [(0, 0), (0, 0)]


def test_oriented_edges_theta1():
    assert oriented_edges(generate_theta(1)) == [(0, 1), (0, 1), (1, 0), (1, 0)]


@given(connected_multigraphs())
def test_oriented_edge_count(G):
    assert len(oriented_edges(G)) == 2 * len(G.edges)


def test_reversal_involution():
    m = 5
    for i in range(2 * m):
        assert reversal(reversal(i, m), m) == i
        assert reversal(i, m) != i


def test_flower2_block_form():
    # A - 1 must be [[B, B], [B, B]] with B the 2x2 matrix with zero
    # diagonal and ones elsewhere
    A = edge_matrix(generate_flower(2))
    B = [[0, 1], [1, 0]]
    expected = [
        [B[i % 2][j % 2] + (1 if i == j else 0) for j in range(4)] for i in range(4)
    ]
    assert A == expected


def test_flower1_identity():
    # the only non-reversal continuation of the loop is the loop itself
    assert edge_matrix(generate_flower(1)) == [[1, 0], [0, 1]]


def test_pendant_zero_row():
    G = Multigraph(2, ((0, 0), (0, 1)))
    A = edge_matrix(G)
    assert A[1] == [0, 0, 0, 0]  # oriented into the valence-1 vertex


@settings(max_examples=60)
@given(connected_multigraphs())
def test_row_sums_and_entry_total(G):
    A = edge_matrix(G)
    val = valences(G)
    ends = oriented_edges(G)
    for k, (_, t) in enumerate(ends):
        assert sum(A[k]) == val[t] - 1
    assert sum(sum(row) for row in A) == sum(val[t] - 1 for _, t in ends)


@settings(max_examples=60)
@given(connected_multigraphs())
def test_reversal_symmetry(G):
    # A[e][e'] == A[rev(e')][rev(e)]: reversing a two-step path is a path
    A = edge_matrix(G)
    m = len(G.edges)
    for i in range(2 * m):
        for j in range(2 * m):
            assert A[i][j] == A[reversal(j, m)][reversal(i, m)]


class TestIrreducible:
    def test_flower2(self):
        assert is_irreducible(edge_matrix(generate_flower(2)))

    def test_flower1_not(self):
        # the identity matrix is two isolated self-loops
        assert not is_irreducible(edge_matrix(generate_flower(1)))

    def test_pendant_not(self):
        assert not is_irreducible(edge_matrix(Multigraph(2, ((0, 0), (0, 1)))))

    def test_degenerate_sizes(self):
        assert not is_irreducible([])
        assert not is_irreducible([[0]])
        assert is_irreducible([[1]])

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=2))
    def test_no_ends_implies_irreducible(self, G):
        if min(valences(G)) >= 2 and betti_number(G) >= 2:
            A = edge_matrix(G)
            assert is_irreducible(A)
            assert not is_permutation(A)


class TestPermutation:
    def test_flower1(self):
        assert is_permutation(edge_matrix(generate_flower(1)))

    def test_cycles(self):
        for n in (2, 3, 5):
            assert is_permutation(edge_matrix(generate_cycle(n)))

    def test_flower2_not(self):
        assert not is_permutation(edge_matrix(generate_flower(2)))


def test_edge_count_limit_refused_before_allocation():
    import tracemalloc

    G = generate_flower(MAX_EDGES + 1)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"limit of {MAX_EDGES}"):
            edge_matrix(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one row of A alone would take 64 KB, all of A 0.5 GB


def test_one_minus_a_built_over_the_rows_of_a():
    # 1 - A holds A's memory plus one row at a time, never a second 2m x 2m
    # matrix: its peak stays near that of A alone (2m = 400 here)
    import tracemalloc

    rng = random.Random(400)
    n = 100
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(200 - len(edges))]
    G = Multigraph(n, tuple(edges))

    def peak(build):
        tracemalloc.start()
        try:
            build(G)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(one_minus_edge_matrix(G)) == 400
    assert peak(one_minus_edge_matrix) <= 1.2 * peak(edge_matrix)
