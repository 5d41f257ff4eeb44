"""Exact integer linear algebra on plain list-of-lists matrices.

Everything here runs on Python's arbitrary-precision integers; no
intermediate step may overflow or round.  Matrices are lists of row lists.
Elementary row/column operations are recorded as tuples, and
``apply_operation`` is the one place that applies them to a matrix:

    ("row_add", dst, src, k)   row[dst] += k * row[src]
    ("row_swap", i, j)
    ("row_neg", i)
    ("col_add", dst, src, k)   col[dst] += k * col[src]
    ("col_swap", i, j)
    ("col_neg", i)

A Smith reduction keeps only its diagonal form and this log, which is the
one record of the transform and its certificate: a log of elementary
operations is a product of determinant +-1 matrices, so checking each
operation and that the log replays m to d checks x * m * y = d.  Readers
never build x or y: one loop, ``_replay_vector``, replays the log entry by
entry on only the plain vectors they need (rows of x and columns of y at
the kernel positions, x b and y z), and tests compare its four products
x v, v x, y v and v y with the materialised transforms.

``reversed_charpoly`` gives det(1 - uM), both zeta sides, by Hessenberg
reductions modulo as many primes as the bound ``charpoly_bound`` needs: one
Mersenne prime up to 2^127 - 1 when one suffices, then primes below 2^61 by
CRT.  ``determinant`` and ``poly_matrix_det`` serve the sweep and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd, isqrt, lcm
from operator import mul

from .errors import TheoremViolation

__all__ = [
    "xgcd",
    "identity_matrix",
    "transpose",
    "mat_vec",
    "determinant",
    "apply_operation",
    "apply_operations",
    "apply_row_operations_to_vector",
    "operations_to_text",
    "SmithDecomposition",
    "smith_normal_form",
    "hermite_normal_form",
    "kernel_basis",
    "AbelianGroup",
    "cokernel",
    "solve_min_scalar",
    "poly_trim",
    "poly_mul",
    "poly_pow",
    "poly_eval",
    "poly_matrix_det",
    "reversed_charpoly",
]


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def mat_vec(M, v):
    return [sum(map(mul, row, v)) for row in M]


def determinant(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi, rowk = a[i], a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def apply_operation(A, op):
    """Apply one recorded operation to the matrix A in place."""
    kind = op[0]
    if kind == "row_add":
        _, d, s, k = op
        A[d] = [x + k * y for x, y in zip(A[d], A[s])]
    elif kind == "row_swap":
        _, i, j = op
        A[i], A[j] = A[j], A[i]
    elif kind == "row_neg":
        A[op[1]] = [-x for x in A[op[1]]]
    elif kind == "col_add":
        _, d, s, k = op
        for row in A:
            v = row[s]
            if v:  # most entries of a sparse column are zero
                row[d] += k * v
    elif kind == "col_swap":
        _, i, j = op
        for row in A:
            row[i], row[j] = row[j], row[i]
    elif kind == "col_neg":
        j = op[1]
        for row in A:
            row[j] = -row[j]
    else:
        raise ValueError(f"unknown operation {op!r}")


def _replay_side(A, ops, side):
    """Apply in place only the operations acting on one side of A, "row_"
    (from the left) or "col_" (from the right); return A."""
    for op in ops:
        if op[0].startswith(side):
            apply_operation(A, op)
    return A


def apply_operations(M, ops):
    """Replay recorded row and column operations on a copy of M."""
    A = [list(row) for row in M]
    for op in ops:
        apply_operation(A, op)
    return A


def apply_row_operations_to_vector(v, ops):
    """x v: the row operations replayed on a copy of v, the column ones skipped."""
    return _replay_vector(v, ops, "row_")


def _replay_vector(v, ops, side, transposed=False):
    """The operations on one side, "row_" (x) or "col_" (y), replayed entry
    by entry on a copy of the plain vector v: x v or y v, or v x or v y when
    transposed.  x v and v y take the operations in order; v x and y v take
    them in reverse, each add turned (its elementary matrix transposed), as
    swaps and negations are their own transposes."""
    v = list(v)
    backwards = transposed != (side == "col_")
    add, swap, neg = side + "add", side + "swap", side + "neg"
    for op in reversed(ops) if backwards else ops:
        kind = op[0]
        if kind == add:
            _, d, s, k = op
            if backwards:
                d, s = s, d
            v[d] += k * v[s]
        elif kind == swap:
            _, i, j = op
            v[i], v[j] = v[j], v[i]
        elif kind == neg:
            v[op[1]] = -v[op[1]]
    return v


def _unit_rows(positions, size):
    return [[1 if j == i else 0 for j in range(size)] for i in positions]


def operations_to_text(ops):
    """One audit line per recorded operation."""
    lines = []
    for op in ops:
        kind = op[0]
        axis = "R" if kind.startswith("row_") else "C"
        if kind in ("row_add", "col_add"):
            _, d, s, k = op
            lines.append(f"{axis}{d} += {k}*{axis}{s}")
        elif kind in ("row_swap", "col_swap"):
            _, i, j = op
            lines.append(f"swap {axis}{i} {axis}{j}")
        elif kind in ("row_neg", "col_neg"):
            lines.append(f"negate {axis}{op[1]}")
        else:
            raise ValueError(f"unknown operation {op!r}")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class SmithDecomposition:
    """x * m * y = d with x, y unimodular and d diagonal with positive
    entries each dividing the next, zeros trailing.  ``operations`` is the
    one record and certificate of the reduction; x and y are replayed from
    it when first read, which no path of the package does."""

    d: list
    operations: tuple

    @cached_property
    def x(self):
        return _replay_side(identity_matrix(len(self.d)), self.operations, "row_")

    @cached_property
    def y(self):
        cols = len(self.d[0]) if self.d else 0
        return _replay_side(identity_matrix(cols), self.operations, "col_")

    @property
    def diagonal(self):
        if not self.d:
            return []
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0])))]

    def _free(self, size):
        """Positions below size where the diagonal is zero or missing."""
        diag = self.diagonal
        return [i for i in range(size) if i >= len(diag) or diag[i] == 0]

    @property
    def cokernel(self):
        """Z^rows modulo the column span of m."""
        return AbelianGroup.from_diagonal(self.diagonal, len(self.d))

    @cached_property
    def left_kernel(self):
        """Hermite basis of {v : v m = 0}: x m = d y^-1, so the rows of x at
        the free positions span it (rows of a unimodular x are independent).
        Only those rows are replayed; x itself is never built."""
        rows = len(self.d)
        return hermite_normal_form([_replay_vector(e, self.operations, "row_", transposed=True)
                                    for e in _unit_rows(self._free(rows), rows)])

    @cached_property
    def right_kernel(self):
        """Hermite basis of {v : m v = 0}: m y = x^-1 d, so the columns of y
        at the free positions span it.  Only those columns are replayed."""
        cols = len(self.d[0]) if self.d else 0
        return hermite_normal_form([_replay_vector(e, self.operations, "col_")
                                    for e in _unit_rows(self._free(cols), cols)])


def smith_normal_form(M):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Classic reduction: the nonzero entry of minimal absolute value is moved
    to the pivot, its row and column are cleared by exact division steps
    (a nonzero remainder yields a smaller pivot and restarts), and a
    divisibility violation in the remaining block is folded into the pivot
    row.  The recorded operations replay to the returned diagonal.

    The clears are the bulk of the log, and each is applied only to the
    entries it can change: a row clear to the nonzero entries of the pivot
    row, a column clear to its one entry in the pivot row.  Every other
    operation goes through ``apply_operation``, and replaying the log
    through it gives the same diagonal form.  M must hold Python ints.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    for row in M:
        if len(row) != cols:
            raise ValueError("matrix rows must have equal length")
    D = [list(row) for row in M]
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
            pivot_row = D[t]
            pivot = pivot_row[t]
            # rows and columns before t are clear, so a row clear changes
            # only the entries where row t is nonzero, from column t on
            support = [(j, v) for j, v in enumerate(pivot_row[t:], t) if v]
            moved = False
            for i in range(t + 1, rows):
                row = D[i]
                v = row[t]
                if v:
                    q = v // pivot
                    if q:
                        ops.append(("row_add", i, t, -q))
                        for j, a in support:
                            row[j] -= q * a
                    if row[t]:  # 0 < remainder < pivot: better pivot found
                        record("row_swap", t, i)
                        moved = True
                        break
            if moved:
                continue
            # column t is now pivot * e_t, so a column clear changes only
            # the entry it clears, in row t
            for j in range(t + 1, cols):
                v = pivot_row[j]
                if v:
                    q = v // pivot
                    if q:
                        ops.append(("col_add", j, t, -q))
                        pivot_row[j] = v - q * pivot
                    if pivot_row[j]:
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


def hermite_normal_form(M):
    """Row-style Hermite normal form of M: H in row echelon form with
    positive pivots, entries above each pivot reduced into [0, pivot), and
    zero rows last, reached by unimodular row operations.  Two integer
    matrices span the same row lattice exactly when their forms are equal.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    H = [list(map(int, row)) for row in M]
    r = 0
    for j in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if H[i][j]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            H[r], H[pivot_row] = H[pivot_row], H[r]
        for i in range(r + 1, rows):
            if not H[i][j]:
                continue
            a, b = H[r][j], H[i][j]
            if b % a == 0:
                q = b // a
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
            else:
                g, s, t = xgcd(a, b)
                ag, bg = a // g, b // g
                # unimodular 2x2 mix: det = s*ag + t*bg = 1
                H[r], H[i] = (
                    [s * x + t * y for x, y in zip(H[r], H[i])],
                    [-bg * x + ag * y for x, y in zip(H[r], H[i])],
                )
        if H[r][j] < 0:
            H[r] = [-x for x in H[r]]
        pivot = H[r][j]
        for i in range(r):
            q = H[i][j] // pivot
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
        r += 1
    return H


def kernel_basis(M):
    """Basis rows (in Hermite normal form) of the integer right kernel
    {x : M x = 0}."""
    return smith_normal_form(M).right_kernel


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form: free rank
    plus torsion factors, each >= 2 and dividing the next."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        prev = 1
        for d in self.torsion:
            if d < 2 or d % prev:
                raise ValueError("torsion factors must be >= 2 and divide in order")
            prev = d

    @classmethod
    def from_diagonal(cls, diag, size):
        """Cokernel of a diagonal divisibility chain inside Z^size."""
        nonzero = [abs(d) for d in diag if d]
        torsion = tuple(d for d in nonzero if d >= 2)
        return cls(size - len(nonzero), torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(M):
    """Z^rows modulo the column span of M, reduced from the last row up: a row
    permutation is unimodular.  Row t of 1 - A^t is +1 at column t and -1 at
    the edges entering t's origin, so in index order the unit scan pivots on
    the diagonal and fills in; reversed, it pivots on an entering edge, and the
    rows leaving that edge's terminus become differences of at most 4 entries."""
    return smith_normal_form(M[::-1]).cokernel


def _min_scalar(diag, c):
    """Least lam > 0 with D z = lam c solvable over Z, D the square diagonal
    matrix of diag, or None when no lam is."""
    lam = 1
    for d, v in zip(diag, c):
        if d:
            lam = lcm(lam, d // gcd(d, v))
        elif v:
            return None
    return lam


def solve_min_scalar(M, b, snf=None):
    """Smallest positive lam such that M x = lam * b is solvable over Z.

    Returns (lam, x) with a verified integer witness x, or None when no
    positive multiple of b lies in the image of M.  ``snf``, when given,
    must be ``smith_normal_form(M)``; it is then reused instead of being
    computed again.  A witness that does not multiply back raises
    TheoremViolation.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("square matrix required")
    if len(b) != n:
        raise ValueError("vector length must match the matrix size")
    if snf is None:
        snf = smith_normal_form(M)
    # M w = lam b exactly when d (y^-1 w) = lam (x b): solve d z = lam c for
    # c = x b, then w = y z.  Both products are replayed from the log entry
    # by entry, so the transforms x and y are never built.
    diag = snf.diagonal
    c = apply_row_operations_to_vector(b, snf.operations)
    lam = _min_scalar(diag, c)
    if lam is None:
        return None
    z = [lam * v // d if d else 0 for d, v in zip(diag, c)]
    x = _replay_vector(z, snf.operations, "col_")
    if mat_vec(M, x) != [lam * v for v in b]:
        raise TheoremViolation("solver witness x must satisfy M x = lam * b")
    return lam, x


# --- integer polynomials -------------------------------------------------
#
# A polynomial is a list of integer coefficients, index = degree, trimmed
# so the leading coefficient is nonzero; the zero polynomial is [].


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_matrix_det(P):
    """Exact determinant of a square matrix of integer polynomials.

    Evaluates the matrix at the integer points 0, 1, ..., D, where D bounds
    the degree, takes fraction-free integer determinants and interpolates
    by Newton's forward differences: the k-th difference at 0 is k! times
    the coefficient of the falling factorial u(u-1)...(u-k+1), so each
    division by k! must be exact, and a Horner pass turns those
    coefficients into monomial ones.  An inexact division means a wrong
    determinant and raises TheoremViolation.
    """
    n = len(P)
    if n == 0:
        return [1]
    for row in P:
        if len(row) != n:
            raise ValueError("square matrix required")
    bound = sum(max((len(e) - 1 for e in row if e), default=0) for row in P)
    diffs = [
        determinant([[poly_eval(e, u) if e else 0 for e in row] for row in P])
        for u in range(bound + 1)
    ]
    # after pass k, diffs[k] is the k-th forward difference at 0
    for k in range(1, bound + 1):
        for i in range(bound, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    factorial = 1
    for k in range(2, bound + 1):
        factorial *= k
        diffs[k], rem = divmod(diffs[k], factorial)
        if rem:
            raise TheoremViolation("interpolated determinant has a non-integer coefficient")
    # sum of diffs[k] * u(u-1)...(u-k+1) by Horner: out = out * (u - k) + diffs[k]
    out = []
    for k in range(bound, -1, -1):
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= k * out[i + 1]
        out[0] += diffs[k]
    return poly_trim(out)


def charpoly_bound(M):
    """B > |c_k| for every coefficient c_k of det(1 - uM): c_k sums principal
    k-minors, so by Hadamard |c_k| <= e_k of the row norms, here rounded up."""
    e = [1]
    for row in M:
        q = isqrt(sum(map(mul, row, row)) << 32) + 1  # q >= 2^16 |row|
        e = [a + q * b for a, b in zip(e + [0], [0] + e)]
    return max(c >> 16 * k for k, c in enumerate(e)) + 1


@cache
def prev_prime(n):
    """The largest prime below n (None below 3), memoized: a strong probable-prime
    test to the prime bases up to 37, which is exact below 3.3 * 10**24."""
    while n > 2:
        n -= 1
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        xs = (pow(a, d, n) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) if a % n)
        if all(x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s)) for x in xs):
            return n


def charpoly_mod(M, p):
    """det(1 - uM) mod p, lowest degree first (Cohen, GTM 138, Alg. 2.2.9)."""
    n = len(M)
    H = [[v % p for v in row] for row in M]
    for c in range(1, n - 1):
        k = next((i for i in range(c, n) if H[i][c - 1]), None)
        if k is None:
            continue
        if k != c:
            H[k], H[c] = H[c], H[k]
            for row in H:
                row[k], row[c] = row[c], row[k]
        # row i -= u * row c clears column c - 1; column c += u * column i
        # undoes it.  Both touch only the entries that a nonzero can change.
        inv = pow(H[c][c - 1], -1, p)
        us = [(i, H[i][c - 1] * inv % p) for i in range(c + 1, n) if H[i][c - 1]]
        if not us:
            continue
        pivot_row = [(j, b) for j, b in enumerate(H[c]) if b]
        for i, u in us:
            row = H[i]
            for j, b in pivot_row:
                row[j] = (row[j] - u * b) % p
        for row in H:
            row[c] = (row[c] + sum([u * row[i] for i, u in us if row[i]])) % p
    # P[c] = det(x - H[:c, :c]) lowest degree first; t = H[i+1][i] ... H[c][c-1]
    # a zero subdiagonal entry makes every further term of the column zero
    P = [[1]]
    for c in range(n):
        new, t = [0] + P[c], 1
        for i in range(c, -1, -1):
            w = H[i][c] * t % p
            if w:
                new[: i + 1] = [a - w * b for a, b in zip(new, P[i])]
            t = t * H[i][i - 1] % p  # unused after i = 0
            if not t:
                break
        P.append([v % p for v in new])
    return P[n][::-1]


# 2^e - 1 for the Mersenne exponents e = 61, 89, 107 and 127, all proven prime
MERSENNE_PRIMES = tuple((1 << e) - 1 for e in (61, 89, 107, 127))


def _moduli(bound):
    """The smallest Mersenne prime above 2 * bound (else the largest), then
    the primes below 2^61 other than it, downwards."""
    first = next((q for q in MERSENNE_PRIMES if q > 2 * bound), MERSENNE_PRIMES[-1])
    yield first
    p = 1 << 61
    while True:
        p = prev_prime(p)
        if p != first:
            yield p


def reversed_charpoly(M):
    """det(1 - uM) for a square integer matrix M, exactly, lowest degree first."""
    bound = charpoly_bound(M)
    out, modulus, moduli = [0] * (len(M) + 1), 1, _moduli(bound)
    while modulus <= 2 * bound:
        p = next(moduli)
        inv = pow(modulus, -1, p)
        out = [x + modulus * ((r - x) * inv % p) for x, r in zip(out, charpoly_mod(M, p))]
        modulus *= p
    return poly_trim([x - modulus if 2 * x > modulus else x for x in out])
