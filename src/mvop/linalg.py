"""Dense exact linear algebra over Fraction entries.

Matrices are tuples of row tuples, vectors are tuples; both are immutable and
hashable, so results can be cached and compared structurally.  Entries are int
or Fraction only.  Every matrix product is one kernel, matmul_sum, that clears
each side to integers over one common denominator and divides once per entry;
nullspaces run Bareiss (fraction-free) elimination on the same integer form.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

Matrix = tuple
Vector = tuple


class SingularMatrixError(ArithmeticError):
    pass


def _exact(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"matrix entry {x!r} is not an int or Fraction")


def freeze_matrix(rows) -> Matrix:
    return tuple(tuple(map(_exact, row)) for row in rows)


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
        tuple(_exact(entries[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb, strict=True)) for ra, rb in zip(a, b, strict=True))


def scale(a: Matrix, q) -> Matrix:
    q = _exact(q)
    return tuple(tuple(q * x for x in row) for row in a)


def _integer_form(rows) -> tuple[list[list[int]], int]:
    """(m, d) with rows == m / d entrywise, d the lcm of the entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def matmul_sum(lefts, rights) -> Matrix:
    """Exact sum over k of lefts[k] @ rights[k], for one or more pairs: the lefts
    side by side times the rights stacked, as one integer product over the lcm
    of each side's denominators.  Raises ValueError on a shape mismatch or on
    unequal or zero term counts."""
    stacked = [row for b in rights for row in b]
    if not lefts or len(lefts) != len(rights):
        raise ValueError("need equally many left and right factors, at least one")
    if any(len(a) != len(lefts[0]) or any(len(r) != len(b) for r in a) for a, b in zip(lefts, rights)):
        raise ValueError("inner dimension mismatch")
    if any(len(r) != len(stacked[0]) for r in stacked):
        raise ValueError("right factors differ in width")
    left, dl = _integer_form([[x for a in lefts for x in a[i]] for i in range(len(lefts[0]))])
    right, dr = _integer_form(stacked)
    cols, den = list(zip(*right)), dl * dr
    return tuple(tuple(Fraction(sum(map(operator.mul, r, c)), den) for c in cols) for r in left)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return matmul_sum((a,), (b,))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b columnwise for square a, exactly; raises
    SingularMatrixError when a is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    width = len(b[0]) if b else 0
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"singular matrix (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / Fraction(aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n : n + width]) for row in aug)


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        inv = 1 / Fraction(m[col][col])
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return out


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel via fraction-free elimination.

    The matrix is cleared to integers, then reduced by Bareiss one-step elimination
    with exact nonzero pivot tests; free variables are set to 1 in column order.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    m = _integer_form(a)[0]
    pivots: list[tuple[int, int]] = []
    prev = 1
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        pr = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        for r in range(row + 1, n_rows):
            for cc in range(col + 1, n_cols):
                m[r][cc] = (m[row][col] * m[r][cc] - m[r][col] * m[row][cc]) // prev
            m[r][col] = 0
        prev = m[row][col]
        pivots.append((row, col))
        row += 1
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
