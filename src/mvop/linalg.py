"""Dense exact linear algebra over Fraction entries.

Matrices are tuples of row tuples, vectors are tuples; both are immutable and
hashable, so results can be cached and compared structurally.  Entries are int
or Fraction only.  Every matrix product runs on one integer kernel, int_matmul:
matmul_sum clears each side to integers over one common denominator (or takes
a side already cleared) and divides once per entry; nullspaces run Bareiss
(fraction-free) elimination on the same integer form.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

Matrix = tuple
Vector = tuple


class SingularMatrixError(ArithmeticError):
    pass


def exact_scalar(x) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; floats, bools and
    strings (decimal ones included) raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact int or Fraction")


def freeze_matrix(rows) -> Matrix:
    return tuple(tuple(map(exact_scalar, row)) for row in rows)


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return tuple((Fraction(0),) * m for _ in range(n))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def diagonal(entries) -> Matrix:
    entries = list(entries)
    n = len(entries)
    return tuple(
        tuple(exact_scalar(entries[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def scale(a: Matrix, q) -> Matrix:
    q = exact_scalar(q)
    return tuple(tuple(q * x for x in row) for row in a)


def _integer_form(rows) -> tuple[list[list[int]], int]:
    """(m, d) with rows == m / d entrywise, d the lcm of the entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def int_matmul(a, b) -> Matrix:
    """Product of two integer matrices, given as sequences of rows."""
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in a)


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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return matmul_sum((a,), (b,))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


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
