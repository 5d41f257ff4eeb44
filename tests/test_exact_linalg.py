import dataclasses
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import graphkt.exact_linalg as linalg_mod
from graphkt import (
    Multigraph,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
)
from graphkt.edge_operator import edge_matrix, one_minus_edge_matrix
from graphkt.errors import TheoremViolation
from graphkt.exact_linalg import (
    MERSENNE_PRIMES,
    AbelianGroup,
    SmithDecomposition,
    apply_operation,
    apply_operations,
    apply_row_operations_to_vector,
    charpoly_bound,
    determinant,
    hermite_normal_form,
    identity_matrix,
    kernel_basis,
    mat_vec,
    operations_to_text,
    poly_eval,
    poly_matrix_det,
    poly_mul,
    poly_trim,
    prev_prime,
    reversed_charpoly,
    smith_normal_form,
    solve_min_scalar,
    transpose,
    xgcd,
)
from graphkt.ihara_zeta import ihara_rhs
from graphkt.multigraph import betti_number
from graphkt.sweep import enumerate_connected

from .strategies import connected_multigraphs, int_matrices


# --- independent oracles ---------------------------------------------------


def mat_mul(A, B):
    if not A or not B:
        return [[] for _ in A]
    cols = range(len(B[0]))
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, Bt[j])) for j in cols] for row in A]


def cofactor_det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def cofactor_poly_det(P):
    n = len(P)
    if n == 0:
        return [1]
    if n == 1:
        return list(P[0][0])
    total = []
    for j in range(n):
        if P[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in P[1:]]
            term = poly_mul(P[0][j], cofactor_poly_det(minor))
            if j % 2:
                term = [-c for c in term]
            total = poly_add(total, term)
    return total


def divide_by_root(p, a):
    """p / (u - a) by synthetic division; a must be a root of p."""
    out, acc = [], 0
    for c in reversed(p[1:]):
        acc = acc * a + c
        out.append(acc)
    assert acc * a + p[0] == 0
    return out[::-1]


def lagrange_poly_matrix_det(P):
    """The earlier poly_matrix_det: integer points 0, 1, -1, 2, -2, ... and
    Lagrange interpolation in Fractions."""
    n = len(P)
    if n == 0:
        return [1]
    for row in P:
        if len(row) != n:
            raise ValueError("square matrix required")
    bound = sum(max((len(e) - 1 for e in row if e), default=0) for row in P)
    points = [0]
    k = 1
    while len(points) < bound + 1:
        points.extend([k, -k])
        k += 1
    points = points[: bound + 1]
    values = [
        determinant([[poly_eval(e, u) for e in row] for row in P]) for u in points
    ]
    if not any(values):
        return []
    master = [1]
    for u in points:
        master = poly_mul(master, [-u, 1])
    acc = [Fraction(0)] * (bound + 1)
    for u, v in zip(points, values):
        if not v:
            continue
        basis = divide_by_root(master, u)
        scale = Fraction(v, poly_eval(basis, u))
        for i, c in enumerate(basis):
            if c:
                acc[i] += scale * c
    out = []
    for f in acc:
        if f.denominator != 1:
            raise ValueError("interpolation produced a non-integer coefficient")
        out.append(int(f))
    return poly_trim(out)


@st.composite
def poly_matrices(draw, max_size=5, max_degree=3):
    """Square matrices of integer polynomials, n = 0..max_size, with zero
    entries; some are made singular by a repeated row or a zero column."""
    n = draw(st.integers(0, max_size))
    entry = st.one_of(
        st.just([]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=max_degree + 1).map(poly_trim),
    )
    P = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2:
        singular = draw(st.sampled_from(["none", "row", "column"]))
        if singular == "row":
            P[1] = list(P[0])
        elif singular == "column":
            for row in P:
                row[n - 1] = []
    return P


def dense_smith_normal_form(M):
    """The Smith reduction with every operation applied to the whole matrix
    through ``apply_operation``: the oracle for the log of
    ``smith_normal_form``, whose clears touch only the entries they change."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    for row in M:
        if len(row) != cols:
            raise ValueError("matrix rows must have equal length")
    D = [list(map(int, row)) for row in M]
    ops = []

    def record(*op):
        apply_operation(D, op)
        ops.append(op)

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # row-major scan for the first entry of least nonzero magnitude; a
        # unit cannot be beaten, so the scan stops at the first one
        best = None
        best_abs = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = D[i][j]
                if v and (best is None or abs(v) < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
                    if best_abs == 1:
                        break
            if best_abs == 1:
                break
        if best is None:
            break
        if best[0] != t:
            record("row_swap", t, best[0])
        if best[1] != t:
            record("col_swap", t, best[1])
        while True:
            if D[t][t] < 0:
                record("row_neg", t)
            pivot = D[t][t]
            moved = False
            for i in range(t + 1, rows):
                v = D[i][t]
                if v:
                    q = v // pivot
                    if q:
                        record("row_add", i, t, -q)
                    if D[i][t]:  # 0 < remainder < pivot: better pivot found
                        record("row_swap", t, i)
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, cols):
                v = D[t][j]
                if v:
                    q = v // pivot
                    if q:
                        record("col_add", j, t, -q)
                    if D[t][j]:
                        record("col_swap", t, j)
                        moved = True
                        break
            if moved:
                continue
            # row and column t are clear; enforce the divisibility chain,
            # which a unit pivot satisfies trivially
            if pivot == 1:
                break
            violator = None
            for i in range(t + 1, rows):
                if any(D[i][j] % pivot for j in range(t + 1, cols)):
                    violator = i
                    break
            if violator is None:
                break
            record("row_add", t, violator, 1)
        t += 1
    return SmithDecomposition(D, tuple(ops))


def dense_solve_min_scalar(M, b, snf):
    """``solve_min_scalar`` through the materialised transforms x and y."""
    n = len(M)
    diag = snf.diagonal
    c = mat_vec(snf.x, b)
    lam = 1
    for i in range(n):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i]:
                return None
        else:
            lam = lcm(lam, d // gcd(d, c[i]))
    z = [0] * n
    for i in range(n):
        d = diag[i] if i < len(diag) else 0
        if d:
            z[i] = lam * c[i] // d
    return lam, mat_vec(snf.y, z)


def random_connected_graph(rng, n, m):
    """A random spanning tree on n vertices plus m - n + 1 uniform extra
    edges, loops and parallel edges allowed."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(m - n + 1)]
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


# --- xgcd and determinant --------------------------------------------------


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert x * a + y * b == g


@settings(max_examples=80)
@given(int_matrices(max_size=5))
def test_determinant_matches_cofactor(M):
    if len(M) == len(M[0]):
        assert determinant(M) == cofactor_det(M)


# --- Smith normal form -----------------------------------------------------


def test_witnesses_multiply_back_on_the_sweep_graphs():
    # verify checks a Smith form through its log alone; the transforms the
    # log stands for are built and checked here, on the same kind of graphs
    graphs = [G for G in enumerate_connected(4, 6) if betti_number(G) >= 1]
    assert len(graphs) == 278
    for G in graphs:
        M = one_minus_edge_matrix(G)
        snf = smith_normal_form(M)
        assert mat_mul(mat_mul(snf.x, M), snf.y) == snf.d
        assert abs(determinant(snf.x)) == 1
        assert abs(determinant(snf.y)) == 1


class TestSmith:
    def test_identity(self):
        snf = smith_normal_form(identity_matrix(3))
        assert snf.diagonal == [1, 1, 1]

    def test_worked_example(self):
        # d1 = gcd of all entries = 2, d1*d2 = |det| = |16 - 24| = 8
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.diagonal == [2, 4]

    def test_flower2_one_minus_a(self):
        snf = smith_normal_form(one_minus_edge_matrix(generate_flower(2)))
        assert snf.diagonal == [1, 1, 0, 0]

    def test_zero_and_empty(self):
        assert smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]
        assert smith_normal_form([]).diagonal == []

    @settings(max_examples=100)
    @given(int_matrices())
    def test_properties(self, M):
        snf = smith_normal_form(M)
        assert apply_operations(M, snf.operations) == snf.d
        assert mat_mul(mat_mul(snf.x, M), snf.y) == snf.d
        assert abs(determinant(snf.x)) == 1
        assert abs(determinant(snf.y)) == 1
        diag = snf.diagonal
        seen_zero = False
        prev = None
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero, "zeros must trail"
                assert d > 0
                if prev is not None:
                    assert d % prev == 0
                prev = d
        entries = [v for row in M for v in row]
        if any(entries):
            assert diag[0] == gcd(*entries) if len(entries) > 1 else abs(entries[0])
        if len(M) == len(M[0]):
            det = determinant(M)
            if det:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det)

    @settings(max_examples=60)
    @given(int_matrices())
    def test_against_sympy(self, M):
        diag = smith_normal_form(M).diagonal
        sym = sympy_snf(Matrix(M))
        sym_diag = [abs(int(sym[i, i])) for i in range(min(sym.shape))]
        # sympy drops the trailing-zero convention in places; compare the
        # nonzero chains and the zero counts
        assert [d for d in diag if d] == [d for d in sym_diag if d]

    def test_operations_replay(self):
        M = [[3, 1, -4], [2, 0, 7], [5, 5, 5]]
        snf = smith_normal_form(M)
        assert apply_operations(M, snf.operations) == snf.d
        text = operations_to_text(snf.operations)
        assert len(text.splitlines()) == len(snf.operations)
        with pytest.raises(ValueError, match="unknown operation"):
            operations_to_text([("row_scale", 0, 2)])


def check_against_dense(M, b=None):
    """The log, d and every reader equal what the dense reduction and the
    materialised x and y give."""
    snf, dense = smith_normal_form(M), dense_smith_normal_form(M)
    assert snf.operations == dense.operations
    assert snf.d == dense.d
    x, y, diag = dense.x, dense.y, dense.diagonal
    free_rows = [i for i in range(len(x)) if i >= len(diag) or diag[i] == 0]
    free_cols = [j for j in range(len(y)) if j >= len(diag) or diag[j] == 0]
    assert snf.left_kernel == hermite_normal_form([x[i] for i in free_rows])
    assert snf.right_kernel == hermite_normal_form([[row[j] for row in y] for j in free_cols])
    if b is not None:
        assert solve_min_scalar(M, b, snf) == dense_solve_min_scalar(M, b, dense)
        lam, c = snf.min_scalar(b)  # the two readers behind the solve
        assert (c, lam and (lam, snf.preimage(lam, c))) == (
            mat_vec(x, b), dense_solve_min_scalar(M, b, dense))


class TestSmithAgainstDense:
    @settings(max_examples=150)
    @given(int_matrices(max_size=5), st.data())
    def test_int_matrices(self, M, data):
        # non-square shapes, non-unit pivots and remainder swaps all occur here
        b = None
        if len(M) == len(M[0]):
            b = [data.draw(st.integers(-3, 3)) for _ in M]
        check_against_dense(M, b)

    @settings(max_examples=60, deadline=None)
    @given(connected_multigraphs(max_vertices=5, max_edges=8))
    def test_one_minus_a_and_its_transpose(self, G):
        M = one_minus_edge_matrix(G)
        check_against_dense(M, [1] * len(M))
        check_against_dense(transpose(M), [1] * len(M))

    @pytest.mark.parametrize(
        "M, step",
        [
            ([[3, 4], [5, 7]], ("row_swap", 0, 1)),  # remainder 5 - 3 = 2 in the pivot column
            ([[2, 0], [0, 3]], ("row_add", 0, 1, 1)),  # 2 does not divide 3
            ([[2, 0], [0, 3]], ("col_swap", 0, 1)),  # remainder in the pivot row
            ([[6, 4, 0], [0, 10, 15]], ("col_add", 1, 0, 6)),  # non-square, non-unit pivot
        ],
    )
    def test_explicit_paths(self, M, step):
        assert step in smith_normal_form(M).operations
        check_against_dense(M, [1] * len(M) if len(M) == len(M[0]) else None)


@pytest.mark.parametrize("two_m", [20, 40, 60, 80, 100])
def test_graph_sized_diagonal_against_sympy(two_m):
    rng = random.Random(f"smith-sympy/{two_m}")
    m = two_m // 2
    G = random_connected_graph(rng, rng.randint(1, m), m)
    M = one_minus_edge_matrix(G)
    diag = smith_normal_form(M).diagonal
    sym = sympy_snf(Matrix(M))
    sym_diag = [abs(int(sym[i, i])) for i in range(two_m)]
    assert [d for d in diag if d] == [d for d in sym_diag if d]
    assert diag.count(0) == sym_diag.count(0)


# --- Hermite normal form ---------------------------------------------------


class TestHermite:
    def test_row_addition_example(self):
        H = hermite_normal_form([[1, -1, 0], [0, 1, -1]])
        assert H == [[1, 0, -1], [0, 1, -1]]

    def test_zero_matrix(self):
        H = hermite_normal_form([[0, 0], [0, 0]])
        assert H == [[0, 0], [0, 0]]

    def test_gcd_column(self):
        H = hermite_normal_form([[2], [3]])
        assert H == [[1], [0]]

    @settings(max_examples=80)
    @given(int_matrices())
    def test_properties(self, M):
        H = hermite_normal_form(M)
        # echelon form: zero rows last, pivots positive and increasing, the
        # entries above each pivot reduced into [0, pivot)
        pivots = [next((j for j, k in enumerate(row) if k), None) for row in H]
        nonzero = [p for p in pivots if p is not None]
        assert pivots == nonzero + [None] * (len(H) - len(nonzero))
        assert nonzero == sorted(set(nonzero))
        for r, p in enumerate(nonzero):
            assert H[r][p] > 0 and all(0 <= H[i][p] < H[r][p] for i in range(r))
        # idempotent: H is its own form
        assert hermite_normal_form(H) == H

    @settings(max_examples=40)
    @given(int_matrices(max_size=3))
    def test_lattice_invariance(self, M):
        # permuting rows and adding one row to another keeps the row lattice
        mixed = [row[:] for row in M]
        mixed.reverse()
        if len(mixed) >= 2:
            mixed[0] = [a + b for a, b in zip(mixed[0], mixed[1])]
        assert hermite_normal_form(M) == hermite_normal_form(mixed)


# --- kernel and cokernel ---------------------------------------------------


class TestKernel:
    def test_identity_trivial(self):
        assert kernel_basis(identity_matrix(3)) == []

    def test_sum_row(self):
        basis = kernel_basis([[1, 1, 1]])
        assert basis == [[1, 0, -1], [0, 1, -1]]
        for row in basis:
            assert sum(row) == 0

    def test_flower1_full_kernel(self):
        basis = kernel_basis(one_minus_edge_matrix(generate_flower(1)))
        assert basis == [[1, 0], [0, 1]]

    @settings(max_examples=80)
    @given(int_matrices())
    def test_properties(self, M):
        basis = kernel_basis(M)
        for row in basis:
            assert not any(mat_vec(M, row))
        cols = len(M[0])
        rank = sum(1 for d in smith_normal_form(M).diagonal if d)
        assert len(basis) == cols - rank


def check_smith_readers(M):
    rows, cols = len(M), len(M[0])
    snf = smith_normal_form(M)
    basis = snf.right_kernel
    assert basis == smith_normal_form(transpose(M)).left_kernel
    for row in basis:
        assert not any(mat_vec(M, row))
    for row in snf.left_kernel:
        assert not any(mat_vec(transpose(M), row))
    rank = Matrix(M).rank()
    assert len(basis) == cols - rank
    assert len(snf.left_kernel) == rows - rank
    assert snf.cokernel == AbelianGroup.from_diagonal(snf.diagonal, rows)
    assert smith_normal_form(M[::-1]).cokernel == snf.cokernel  # a row permutation is unimodular
    sym = sympy_snf(Matrix(M))
    sym_diag = [int(sym[i, i]) for i in range(min(sym.shape))]
    assert snf.cokernel == AbelianGroup.from_diagonal(sym_diag, rows)


class TestSmithReaders:
    @settings(max_examples=80)
    @given(int_matrices())
    def test_against_each_other_and_sympy(self, M):
        check_smith_readers(M)

    def test_one_row(self):
        check_smith_readers([[1, 2, 3]])
        snf = smith_normal_form([[1, 2, 3]])
        assert snf.right_kernel == [[1, 1, -1], [0, 3, -2]]
        assert snf.left_kernel == []
        assert snf.cokernel == AbelianGroup(0)

    def test_one_column(self):
        check_smith_readers([[1], [2], [3]])
        snf = smith_normal_form([[1], [2], [3]])
        assert snf.left_kernel == [[1, 1, -1], [0, 3, -2]]
        assert snf.right_kernel == []
        assert snf.cokernel == AbelianGroup(2)


@st.composite
def logged_vectors(draw, max_size=6):
    """(v, ops): an integer vector and a log of all six operation kinds on
    lines of its size, no add acting on a line with itself."""
    n = draw(st.integers(1, max_size))
    v = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    line = st.integers(0, n - 1)
    ops = []
    for _ in range(draw(st.integers(0, 25))):
        side = draw(st.sampled_from(("row_", "col_")))
        kind = draw(st.sampled_from(("add", "swap", "neg") if n > 1 else ("neg",)))
        if kind == "neg":
            ops.append((side + kind, draw(line)))
        else:
            i, j = draw(st.lists(line, min_size=2, max_size=2, unique=True))
            ops.append((side + kind, i, j) if kind == "swap" else (side + kind, i, j,
                                                                   draw(st.integers(-3, 3))))
    return v, ops


def check_vector_replays(v, ops):
    # x v, v x, y v and v y against x and y materialised by apply_operations
    n = len(v)
    x, y = (apply_operations(identity_matrix(n), [op for op in ops if op[0].startswith(side)])
            for side in ("row_", "col_"))
    assert apply_row_operations_to_vector(v, ops) == mat_vec(x, v)
    assert linalg_mod._replay_vector(v, ops, "row_", True) == mat_vec(transpose(x), v)
    assert linalg_mod._replay_vector(v, ops, "col_") == mat_vec(y, v)
    assert linalg_mod._replay_vector(v, ops, "col_", True) == mat_vec(transpose(y), v)


class TestVectorReplays:
    @settings(max_examples=100)
    @given(logged_vectors())
    def test_match_the_matrix_replays(self, case):
        check_vector_replays(*case)

    @settings(max_examples=40)
    @given(connected_multigraphs(5, 8, min_genus=1), st.randoms(use_true_random=False))
    def test_match_on_smith_logs(self, G, rng):
        M = one_minus_edge_matrix(G)
        snf = smith_normal_form(M)
        v = [rng.randint(-5, 5) for _ in M]
        check_vector_replays(v, snf.operations)
        # and against the materialised transforms
        assert apply_row_operations_to_vector(v, snf.operations) == mat_vec(snf.x, v)
        assert linalg_mod._replay_vector(v, snf.operations, "col_") == mat_vec(snf.y, v)

    def test_input_is_not_modified(self):
        v = [1, 2, 3]
        ops = [("row_add", 0, 1, 2), ("col_swap", 0, 2), ("row_neg", 2)]
        assert apply_row_operations_to_vector(v, ops) == [5, 2, -3]
        assert linalg_mod._replay_vector(v, ops, "col_") == [3, 2, 1]
        assert v == [1, 2, 3]


def reversed_cokernel(M):
    # the cokernel as the reports reduce it, from the last row up
    return smith_normal_form(M[::-1]).cokernel


class TestCokernel:
    def test_zero(self):
        assert reversed_cokernel([[0, 0], [0, 0]]) == AbelianGroup(2)

    def test_torsion_only(self):
        assert reversed_cokernel([[3, 0], [0, 1]]) == AbelianGroup(0, (3,))

    def test_flower3(self):
        grp = reversed_cokernel(one_minus_edge_matrix(generate_flower(3)))
        assert grp == AbelianGroup(3, (2,))

    # the reports reduce the rows in reverse order; the group must be the one
    # the index-order Smith form gives (check_smith_readers compares the two
    # on hypothesis matrices)
    def test_reversed_rows_equal_index_order_on_one_minus_a_transposed(self):
        graphs = [G for G in enumerate_connected(5, 6) if betti_number(G) >= 1]
        graphs += [generate_flower(g) for g in range(1, 49)]
        graphs += [generate_theta(g) for g in range(1, 49)]
        graphs += [generate_chain(g) for g in (2, 3, 5, 8, 13, 21, 34)]
        for G in graphs:
            Mt = transpose(one_minus_edge_matrix(G))
            assert reversed_cokernel(Mt) == smith_normal_form(Mt).cokernel

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (3, 4))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))

    def test_str(self):
        assert str(AbelianGroup(3, (2,))) == "Z^3 + Z/2"
        assert str(AbelianGroup(0)) == "0"


# --- minimal-scalar solving ------------------------------------------------


class TestSolveMinScalar:
    def test_flower3(self):
        M = one_minus_edge_matrix(generate_flower(3))
        lam, x = solve_min_scalar(M, [1] * 6)
        assert lam == 2
        assert mat_vec(M, x) == [2] * 6

    def test_theta3(self):
        M = one_minus_edge_matrix(generate_theta(3))
        lam, _ = solve_min_scalar(M, [1] * 8)
        assert lam == 1

    def test_zero_matrix_absent(self):
        assert solve_min_scalar([[0, 0], [0, 0]], [1, 1]) is None

    def test_given_decomposition_reused(self):
        M = one_minus_edge_matrix(generate_theta(4))
        b = [1] * len(M)
        assert solve_min_scalar(M, b, smith_normal_form(M)) == solve_min_scalar(M, b)

    def test_tampered_decomposition_raises(self):
        # negating every column in the log negates the replayed y and so the
        # witness: M x = -lam * b != lam * b
        M = one_minus_edge_matrix(generate_flower(3))
        snf = smith_normal_form(M)
        negate = tuple(("col_neg", j) for j in range(len(M)))
        bad = dataclasses.replace(snf, operations=snf.operations + negate)
        assert bad.y == [[-v for v in row] for row in snf.y]
        with pytest.raises(TheoremViolation, match="witness"):
            solve_min_scalar(M, [1] * len(M), bad)

    def test_tampered_decomposition_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            import dataclasses, sys
            from graphkt import generate_flower
            from graphkt.edge_operator import edge_matrix, one_minus_edge_matrix
            from graphkt.errors import TheoremViolation
            from graphkt.exact_linalg import smith_normal_form, solve_min_scalar

            assert False, "this script must run under python -O"
            M = one_minus_edge_matrix(generate_flower(3))
            snf = smith_normal_form(M)
            negate = tuple(("col_neg", j) for j in range(len(M)))
            bad = dataclasses.replace(snf, operations=snf.operations + negate)
            try:
                solve_min_scalar(M, [1] * len(M), bad)
            except TheoremViolation:
                sys.exit(3)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr

    def test_zero_vector(self):
        lam, x = solve_min_scalar([[2, 0], [0, 2]], [0, 0])
        assert lam == 1 and x == [0, 0]

    @settings(max_examples=60)
    @given(int_matrices(max_size=3, max_abs=4), st.data())
    def test_minimality_brute_force(self, M, data):
        if len(M) != len(M[0]):
            return
        n = len(M)
        b = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        result = solve_min_scalar(M, b)
        snf = smith_normal_form(M)
        diag = snf.diagonal
        c = mat_vec(snf.x, b)

        def solvable(lam):
            return all(
                (c[i] == 0) if diag[i] == 0 else (lam * c[i]) % diag[i] == 0
                for i in range(n)
            )

        if result is None:
            for lam in range(1, 13):
                assert not solvable(lam)
        else:
            lam, x = result
            assert mat_vec(M, x) == [lam * v for v in b]
            for smaller in range(1, lam):
                assert not solvable(smaller)


# --- polynomials -----------------------------------------------------------


class TestPolynomials:
    def test_arithmetic(self):
        assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]
        assert poly_eval([1, -4, 2, 4, -3], 2) == 1 - 8 + 8 + 32 - 48

    def test_poly_matrix_det_linear(self):
        assert poly_matrix_det([[[1, -1]]]) == [1, -1]

    def test_poly_matrix_det_diag(self):
        P = [[[1, -1], []], [[], [1, 1]]]
        assert poly_matrix_det(P) == [1, 0, -1]

    def test_poly_matrix_det_zero_row(self):
        assert poly_matrix_det([[[], []], [[1], [1]]]) == []

    def test_empty_matrix(self):
        assert poly_matrix_det([]) == [1]

    @settings(max_examples=40)
    @given(st.data())
    def test_against_cofactor(self, data):
        n = data.draw(st.integers(1, 4))
        coeff = st.integers(-3, 3)
        P = [
            [
                [data.draw(coeff) for _ in range(data.draw(st.integers(0, 3)))]
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        P = [[poly_trim(e) for e in row] for row in P]
        assert poly_matrix_det(P) == poly_trim(cofactor_poly_det(P))


class TestNewtonInterpolation:
    @settings(max_examples=150, deadline=None)
    @given(poly_matrices())
    def test_against_lagrange(self, P):
        assert poly_matrix_det(P) == lagrange_poly_matrix_det(P)

    @pytest.mark.parametrize("point", range(5))
    def test_wrong_value_raises(self, monkeypatch, point):
        # degree bound 4: one value off by one leaves some k-th difference
        # at 0 not divisible by k!
        P = [[[1, 1, 1], [0, 1]], [[0, -1], [1, 0, 2]]]
        assert poly_matrix_det(P) == lagrange_poly_matrix_det(P)
        honest, calls = linalg_mod.determinant, []

        def off_by_one(M):
            calls.append(M)
            return honest(M) + (len(calls) == point + 1)

        monkeypatch.setattr(linalg_mod, "determinant", off_by_one)
        with pytest.raises(TheoremViolation, match="non-integer coefficient"):
            poly_matrix_det(P)
        assert len(calls) == 5


def one_minus_u(M):
    n = len(M)
    return [[poly_trim([int(i == j), -M[i][j]]) for j in range(n)] for i in range(n)]


def count_passes(monkeypatch):
    """Record the modulus of every charpoly_mod pass."""
    honest, moduli = linalg_mod.charpoly_mod, []

    def counting(M, p):
        moduli.append(p)
        return honest(M, p)

    monkeypatch.setattr(linalg_mod, "charpoly_mod", counting)
    return moduli


def block_diagonal(*blocks):
    n = sum(map(len, blocks))
    out, at = [[0] * n for _ in range(n)], 0
    for B in blocks:
        for i, row in enumerate(B):
            out[at + i][at : at + len(row)] = row
        at += len(B)
    return out


class TestCharpoly:
    def test_mersenne_moduli_are_prime(self):
        from sympy import isprime

        assert MERSENNE_PRIMES == tuple((1 << e) - 1 for e in (61, 89, 107, 127))
        assert all(isprime(q) for q in MERSENNE_PRIMES)

    def test_crt_beyond_the_largest_mersenne_prime(self, monkeypatch):
        rng = random.Random("crt")
        M = [[rng.randint(-10**8, 10**8) for _ in range(6)] for _ in range(6)]
        assert charpoly_bound(M) > 1 << 126
        moduli = count_passes(monkeypatch)
        expected = [int(c) for c in Matrix(M).charpoly().all_coeffs()]
        assert reversed_charpoly(M) == poly_trim(expected)
        assert moduli[0] == MERSENNE_PRIMES[-1]
        assert len(moduli) >= 2 and all(p < 1 << 61 for p in moduli[1:])
        assert len(set(moduli)) == len(moduli)

    @pytest.mark.parametrize(
        "M",
        [
            edge_matrix(generate_cycle(5)),  # a permutation
            edge_matrix(generate_cycle(1)),
            block_diagonal([[1, 2], [3, 4]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[5]]),
            block_diagonal([[2]], [[0, 1], [1, 1]], [[1, 1], [0, 1]]),
            [[1, 0, 2], [3, 0, 4], [5, 0, 6]],  # a zero column
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        ]
        + [edge_matrix(generate_flower(g)) for g in range(1, 7)],
        ids=["cycle5", "cycle1", "blocks", "jordan_blocks", "zero_column", "shift"]
        + [f"flower{g}" for g in range(1, 7)],
    )
    def test_split_hessenberg(self, M):
        # the reduced matrix has zero subdiagonal entries, where the
        # recurrence stops early
        expected = poly_trim([int(c) for c in Matrix(M).charpoly().all_coeffs()])
        assert reversed_charpoly(M) == expected
        assert reversed_charpoly(M) == poly_matrix_det(one_minus_u(M))

    def test_primes_follow_sympy_prevprime(self):
        from sympy import prevprime

        ours = theirs = 1 << 61
        for _ in range(12):
            ours, theirs = prev_prime(ours), prevprime(theirs)
            assert ours == theirs

    def test_small_primes(self):
        chain = [37]
        while chain[-1] is not None:
            chain.append(prev_prime(chain[-1]))
        assert chain == [37, 31, 29, 23, 19, 17, 13, 11, 7, 5, 3, 2, None]

    @pytest.mark.parametrize("g", range(1, 21))
    def test_bound_holds_on_flowers(self, g):
        # a flower's rows are the densest for its size: 2g - 1 ones each
        G = generate_flower(g)
        assert max(abs(c) for c in ihara_rhs(G)) < charpoly_bound(edge_matrix(G))

    @settings(max_examples=60)
    @given(st.data())
    def test_against_sympy(self, data):
        n = data.draw(st.integers(1, 5))
        M = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
        expected = [int(c) for c in Matrix(M).charpoly().all_coeffs()]
        assert reversed_charpoly(M) == poly_trim(expected)


def test_transpose_roundtrip():
    M = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(M)) == M
