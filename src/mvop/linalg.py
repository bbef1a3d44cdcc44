"""Dense exact linear algebra over Fraction entries.

Matrices are tuples of row tuples, vectors are tuples; both are immutable and
hashable, so results can be cached and compared structurally.  Sizes here stay
small, so the routines favour exactness and determinism over asymptotics.
Nullspaces use fraction-free elimination on denominator-cleared integer rows,
which keeps intermediate growth bounded by minors of the input.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = tuple
Vector = tuple


class SingularMatrixError(ArithmeticError):
    pass


def freeze_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


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
        tuple(Fraction(entries[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a: Matrix, q) -> Matrix:
    q = Fraction(q)
    return tuple(tuple(q * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def solve(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b for square a; raises SingularMatrixError when singular."""
    cols = solve_matrix(a, tuple((x,) for x in b))
    return tuple(row[0] for row in cols)


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b columnwise for square a, exactly."""
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


def _cleared_int_rows(a: Matrix) -> list[list[int]]:
    rows = []
    for row in a:
        den = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        rows.append([int(Fraction(x) * den) for x in row])
    return rows


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel via fraction-free elimination.

    Rows are cleared to integers, then reduced by Bareiss one-step elimination
    with exact nonzero pivot tests; free variables are set to 1 in column order.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    m = _cleared_int_rows(a)
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


def rank(a: Matrix) -> int:
    n_cols = len(a[0]) if a else 0
    return n_cols - len(nullspace(a))


def leading_principal_minors(a: Matrix) -> list[Fraction]:
    return [det(tuple(row[: t + 1] for row in a[: t + 1])) for t in range(len(a))]
