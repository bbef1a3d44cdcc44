"""Exact matrices over Fraction entries: constructors and one product kernel.

Matrices are tuples of row tuples, immutable and hashable, so results can be
cached and compared structurally.  Entries are int or Fraction only
(exact_scalar).  Every matrix product runs on one integer kernel, int_matmul:
matmul_sum clears each side to integers over one common denominator (or takes
a side already cleared) and divides once per entry.  Nothing here solves a
linear system: the library only ever back-substitutes against bidiagonal or
unit triangular matrices, next to where they arise.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import exact_scalar

Matrix = tuple


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


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)
