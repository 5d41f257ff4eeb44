import dataclasses
import subprocess
import sys
import textwrap
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from graphkt import generate_flower, generate_theta
from graphkt.edge_operator import edge_matrix, one_minus_edge_matrix
from graphkt.errors import TheoremViolation
from graphkt.exact_linalg import (
    AbelianGroup,
    apply_operations,
    charpoly_bound,
    cokernel,
    determinant,
    hermite_normal_form,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    operations_to_text,
    poly_divexact,
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

from .strategies import int_matrices


# --- independent oracles ---------------------------------------------------


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


# --- Hermite normal form ---------------------------------------------------


class TestHermite:
    def test_row_addition_example(self):
        H, U = hermite_normal_form([[1, -1, 0], [0, 1, -1]])
        assert H == [[1, 0, -1], [0, 1, -1]]
        assert mat_mul(U, [[1, -1, 0], [0, 1, -1]]) == H

    def test_zero_matrix(self):
        H, _ = hermite_normal_form([[0, 0], [0, 0]])
        assert H == [[0, 0], [0, 0]]

    def test_gcd_column(self):
        H, U = hermite_normal_form([[2], [3]])
        assert H == [[1], [0]]
        assert abs(determinant(U)) == 1

    @settings(max_examples=80)
    @given(int_matrices())
    def test_properties(self, M):
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H
        assert abs(determinant(U)) == 1
        # idempotent: H is its own form
        H2, _ = hermite_normal_form(H)
        assert H2 == H

    @settings(max_examples=40)
    @given(int_matrices(max_size=3))
    def test_lattice_invariance(self, M):
        # permuting rows and adding one row to another keeps the row lattice
        mixed = [row[:] for row in M]
        mixed.reverse()
        if len(mixed) >= 2:
            mixed[0] = [a + b for a, b in zip(mixed[0], mixed[1])]
        assert hermite_normal_form(M)[0] == hermite_normal_form(mixed)[0]


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


class TestCokernel:
    def test_zero(self):
        assert cokernel([[0, 0], [0, 0]]) == AbelianGroup(2)

    def test_torsion_only(self):
        assert cokernel([[3, 0], [0, 1]]) == AbelianGroup(0, (3,))

    def test_flower3(self):
        grp = cokernel(one_minus_edge_matrix(generate_flower(3)))
        assert grp == AbelianGroup(3, (2,))

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

    def test_divexact(self):
        assert poly_divexact([1, 0, -1], [1, 1]) == [1, -1]
        with pytest.raises(ValueError):
            poly_divexact([1, 0, 1], [1, 1])

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


class TestCharpoly:
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
