"""The dense reference: the bracket series of the hypergeometric recursion,
general exact elimination, the Fraction moment matrices from the closed-form
moments of the scalar factor and the weight pairing as one call.

The library builds every column by a bidiagonal descent from its closed-form
leading coefficient, decomposes by unit triangular back-substitution and
pairs through the integrals of the scalar factor (WeightSpec.integrals),
moment_rows and pair_rows, so it needs none of this.  These are the second
construction, the general solver and the Fraction moment matrices it used
before, kept with their code and assertions so the tests can hold the
library to them.  The bracket series reads C, U and V from the Fraction
builders of fraction_oracle, not from the operator under test.  Matrices are
the library's tuples of row tuples, vectors are tuples.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from mvop import linalg
from mvop.exact import _check_bound, exact_scalar
from mvop.linalg import Matrix, int_matmul
from mvop.matpoly import MatPoly
from mvop.model import Params, WeightSpec, _check_j, moment_rows, pair_rows

from fraction_oracle import diagonal, drift_matrix, identity, mat_add, mat_scale, poch
from fraction_oracle import potential_matrix, recursion_matrix

Vector = tuple


# General exact elimination, on the library's integer form.


class SingularMatrixError(ArithmeticError):
    pass


def _integer_form(rows) -> tuple[list[list[int]], int]:
    """(m, d) with rows == m / d entrywise, d the lcm of the entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def matmul_sum(lefts, rights, left_den: int | None = None, right_den: int | None = None) -> Matrix:
    """Exact sum over k of lefts[k] @ rights[k], for one or more pairs: the lefts
    side by side times the rights stacked, as one integer product.  A side
    passed with its den holds integer matrices over that one denominator and
    is used as it is; a side without is cleared over the lcm of its entry
    denominators.  Raises ValueError on a shape mismatch or on unequal or
    zero term counts."""
    stacked = [row for b in rights for row in b]
    if not lefts or len(lefts) != len(rights):
        raise ValueError("need equally many left and right factors, at least one")
    if any(len(a) != len(lefts[0]) or any(len(r) != len(b) for r in a) for a, b in zip(lefts, rights)):
        raise ValueError("inner dimension mismatch")
    if any(len(r) != len(stacked[0]) for r in stacked):
        raise ValueError("right factors differ in width")
    left = [[x for a in lefts for x in a[i]] for i in range(len(lefts[0]))]
    if left_den is None:
        left, left_den = _integer_form(left)
    if right_den is None:
        stacked, right_den = _integer_form(stacked)
    den = left_den * right_den
    return tuple(tuple(Fraction(x, den) for x in row) for row in int_matmul(left, stacked))




def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return matmul_sum((a,), (b,))


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b columnwise for square a, exactly: _bareiss on [a | b],
    then back-substitution; raises SingularMatrixError when a is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    m, pivots, _, _ = _bareiss([list(ra) + list(rb) for ra, rb in zip(a, b)])
    missing = sorted(set(range(n)) - {c for _, c in pivots})
    if missing:
        raise SingularMatrixError(f"singular matrix (no pivot in column {missing[0]})")
    x = [()] * n
    for r in range(n - 1, -1, -1):
        tail = [sum(m[r][c] * x[c][k] for c in range(r + 1, n)) for k in range(len(b[0]))]
        x[r] = tuple((m[r][n + k] - t) / Fraction(m[r][r]) for k, t in enumerate(tail))
    return tuple(x)


def _bareiss(a: Matrix):
    """Bareiss one-step (fraction-free) elimination of a, cleared to integers
    over den: returns the reduced rows, the (row, col) pivots, the sign of the
    row swaps and den.  Every division is exact, and the last pivot of a
    nonsingular square matrix is its determinant up to that sign."""
    m, den = _integer_form(a)
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    pivots, prev, sign = [], 1, 1
    for col in range(n_cols):
        row = len(pivots)
        pr = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pr is None:
            continue
        if pr != row:
            m[row], m[pr], sign = m[pr], m[row], -sign
        for r in range(row + 1, n_rows):
            for cc in range(col + 1, n_cols):
                m[r][cc] = (m[row][col] * m[r][cc] - m[r][col] * m[row][cc]) // prev
            m[r][col] = 0
        prev = m[row][col]
        pivots.append((row, col))
    return m, pivots, sign, den


def det(a: Matrix) -> Fraction:
    m, pivots, sign, den = _bareiss(a)
    if len(pivots) < len(a):
        return Fraction(0)
    return Fraction(sign * m[-1][-1], den ** len(a)) if a else Fraction(1)


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel via fraction-free elimination:
    _bareiss, with exact nonzero pivot tests; free variables are set to 1 in
    column order."""
    m, pivots, _, _ = _bareiss(a)
    n_cols = len(a[0]) if a else 0
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n_cols):
        if free in pivot_cols:
            continue
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum((Fraction(m[r][cc]) * x[cc] for cc in range(c + 1, n_cols)), Fraction(0))
            x[c] = -s / m[r][c]
        basis.append(tuple(x))
    return basis


def leading_principal_minors(a: Matrix) -> list[Fraction]:
    return [det(tuple(row[: t + 1] for row in a[: t + 1])) for t in range(len(a))]


# The bracket series: the second construction of the columns.


@dataclass(frozen=True)
class BracketSeq:
    """Series coefficient matrices B_0 .. B_m of the hypergeometric recursion."""

    params: Params
    lam: Fraction
    coeffs: tuple


def bracket_seq(p: Params, lam, m: int) -> BracketSeq:
    """Matrices defined by B_0 = I and
    (recursion_matrix + i) B_{i+1} = (i (drift_matrix + i - 1) + potential_matrix + lam) B_i.

    The analytic solution with value f0 at u = 0 has Taylor coefficients
    B_i f0 / i!.  The left side is always invertible, so the sequence exists
    for every lam.
    """
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    lam = exact_scalar(lam)
    c, u, v = recursion_matrix(p), drift_matrix(p), potential_matrix(p)
    eye = identity(p.size)
    shift = mat_add(v, mat_scale(eye, lam))
    out = [eye]
    for i in range(m):
        numerator = mat_add(mat_scale(mat_add(u, mat_scale(eye, i - 1)), i), shift)
        denominator = mat_add(c, mat_scale(eye, i))
        out.append(solve_matrix(denominator, matmul(numerator, out[-1])))
    return BracketSeq(p, lam, tuple(out))


def termination_matrix(p: Params, w: int, j: int):
    """Upper-bidiagonal matrix whose singularity terminates the series at degree w.

    Diagonal entry i is (i - j)(alpha + beta - k + 1 + i + j + w); superdiagonal
    entry i is -(ell - i)(beta - k + 1 + i).  Equals
    w (drift_matrix + w - 1) + potential_matrix + hyper_eigenvalue(p, w, j).
    """
    _check_bound("w", w)
    _check_j(p, j)
    a, b, k, ell = p.alpha, p.beta, p.k, p.ell
    m = [[Fraction(0)] * p.size for _ in range(p.size)]
    for i in range(p.size):
        m[i][i] = (i - j) * (a + b - k + 1 + i + j + w)
        if i < ell:
            m[i][i + 1] = -(ell - i) * (b - k + 1 + i)
    return linalg.freeze_matrix(m)


def poly_solution_space(p: Params, lam, n: int) -> list:
    """Basis of initial values f0 whose solution is polynomial of degree <= n.

    These are the f0 with B_{n+1} f0 = 0, which holds exactly when
    (n (drift_matrix + n - 1) + potential_matrix + lam) B_n f0 = 0, as
    recursion_matrix + n is invertible; the recursion then sends every later
    coefficient to zero.  The dimension equals the number of slots of the
    collision class of lam with w' <= n.
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    return nullspace(bracket_seq(p, lam, n + 1).coeffs[n + 1])


# The Fraction moment matrices and the weight pairing as one call.


def moment_ratio(p: Params, n: int) -> Fraction:
    """The n-th moment of (1-u)^alpha u^beta on (0, 1) over the zeroth, in
    closed form, poch(beta + 1, n) / poch(alpha + beta + 2, n), independent
    of the recurrence the library grows its ratios by."""
    return poch(p.beta + 1, n) / poch(p.alpha + p.beta + 2, n)


def moment_matrix(ws: WeightSpec, m: int) -> Matrix:
    """H_m = sum_c ratio(m + c) Z_c from the weight's core and the closed-form
    ratios alone, never its integrals: ratio(m + c) I times Z_c, summed through
    one dense product of Fraction matrices."""
    core = ws.core
    ratios = [diagonal([moment_ratio(ws.params, m + c)] * core.dim) for c in range(len(core.num))]
    return matmul_sum(ratios, core.num, right_den=core.den)


def inner_product(pp: MatPoly, qq: MatPoly, ws: WeightSpec):
    """Matrix pairing integral of pp W qq^T, in units of the zeroth moment:
    the sum over a, b of pp_a H_{a+b} qq_b^T, which is pp paired against the
    moment rows of qq.  Both arguments need as many columns as the weight has
    rows; the result is pp.dim x qq.dim, pair_rows' integer block as Fractions."""
    if pp.cols != ws.core.dim:
        raise ValueError("dimension mismatch")
    num, den = pair_rows(pp, *moment_rows(qq, ws, len(pp.num)), qq.dim)
    return tuple(tuple(Fraction(x, den) for x in row) for row in num)
